// Command dlsys runs the reproduction experiments and prints their tables.
//
// Usage:
//
//	dlsys list                       # list all experiments with their claims
//	dlsys techniques                 # print the tradeoff framework
//	dlsys run E13 [-full]            # run one experiment (E1..E32, A1..A9, X1..X12, X14)
//	dlsys run all [-full]            # run every experiment in order
//
// The repository benchmark is perfbench/ (bash perfbench/run.sh).
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"dlsys"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		list()
	case "techniques":
		techniques()
	case "run":
		run(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dlsys list | dlsys techniques | dlsys run <E1..E32|A1..A9|X1..X12|X14|all> [-full]")
}

func list() {
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "ID\tSECTION\tTITLE")
	for _, e := range dlsys.Experiments() {
		fmt.Fprintf(w, "%s\t§%s\t%s\n", e.ID, e.Section, e.Title)
	}
	w.Flush()
}

func techniques() {
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "TECHNIQUE\tPACKAGE\tSECTION\tIMPROVES\tCOSTS")
	for _, t := range dlsys.Techniques() {
		fmt.Fprintf(w, "%s\t%s\t§%s\t%v\t%v\n", t.Name, t.Package, t.Section, t.Improves, t.Costs)
	}
	w.Flush()
}

func run(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	full := fs.Bool("full", false, "run at full (documented) problem sizes")
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	id := args[0]
	fs.Parse(args[1:])

	ids := []string{id}
	if id == "all" {
		ids = ids[:0]
		for _, e := range dlsys.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	for _, x := range ids {
		tab, err := dlsys.RunExperiment(x, *full)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(tab.Render())
	}
}
