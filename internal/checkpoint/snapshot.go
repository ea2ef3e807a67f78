package checkpoint

// This file adds model-state snapshots: the crash-recovery complement to
// the package's activation recomputation. A Snapshot is a CRC-protected
// serialization of a network's parameter vector; distributed training
// takes one periodically and a crashed worker rejoins by restoring the
// latest one, with corruption (a bit flip in flight or at rest) detected
// by the checksum rather than silently poisoning the model.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"dlsys/internal/nn"
)

// ErrCorrupt is returned when a snapshot's payload fails its CRC.
var ErrCorrupt = errors.New("checkpoint: snapshot payload fails CRC")

// Snapshot is one CRC-protected capture of a model's parameters.
type Snapshot struct {
	Step    int    // training step/round at which it was taken
	Payload []byte // little-endian float64 parameter vector
	CRC     uint32 // crc32 (IEEE) over Payload
}

// TakeSnapshot serializes the network's current parameter vector.
func TakeSnapshot(step int, net *nn.Network) Snapshot {
	return SnapshotVector(step, net.ParamVector())
}

// SnapshotVector serializes an already-flattened parameter vector.
func SnapshotVector(step int, params []float64) Snapshot {
	payload := make([]byte, 8*len(params))
	for i, v := range params {
		binary.LittleEndian.PutUint64(payload[8*i:], math.Float64bits(v))
	}
	return Snapshot{Step: step, Payload: payload, CRC: crc32.ChecksumIEEE(payload)}
}

// Bytes returns the snapshot's wire/storage size including the header.
func (s Snapshot) Bytes() int64 { return int64(len(s.Payload)) + 12 }

// Verify reports whether the payload still matches its checksum.
func (s Snapshot) Verify() bool { return crc32.ChecksumIEEE(s.Payload) == s.CRC }

// Params decodes the parameter vector, first verifying the CRC.
func (s Snapshot) Params() ([]float64, error) {
	if !s.Verify() {
		return nil, ErrCorrupt
	}
	if len(s.Payload)%8 != 0 {
		return nil, fmt.Errorf("checkpoint: snapshot payload %d bytes is not a float64 vector", len(s.Payload))
	}
	params := make([]float64, len(s.Payload)/8)
	for i := range params {
		params[i] = math.Float64frombits(binary.LittleEndian.Uint64(s.Payload[8*i:]))
	}
	return params, nil
}

// Restore verifies the CRC and writes the snapshot's parameters back into
// the network. A network with a different parameter count is rejected
// with the *nn.VectorLengthError SetParamVector returns.
func (s Snapshot) Restore(net *nn.Network) error {
	params, err := s.Params()
	if err != nil {
		return err
	}
	return net.SetParamVector(params)
}

// Store keeps a bounded history of snapshots in a fixed-capacity ring and
// restores from the newest one that still verifies, so a corrupted latest
// snapshot degrades to the previous good one instead of failing recovery
// outright. The ring never grows past its retention bound: an evicted
// slot's payload reference is released immediately (not merely trimmed off
// a shared backing array), so long elastic runs with periodic snapshots
// hold memory proportional to keep, not to rounds elapsed.
type Store struct {
	keep         int
	ring         []Snapshot // fixed capacity keep; slot next is the oldest when full
	next         int        // slot the next Put writes
	n            int        // resident snapshots (<= keep)
	evicted      int        // snapshots displaced over the store's lifetime
	evictedBytes int64      // their total payload+header bytes
}

// NewStore builds a store retaining the last keep snapshots (min 1).
func NewStore(keep int) *Store {
	if keep < 1 {
		keep = 1
	}
	return &Store{keep: keep, ring: make([]Snapshot, keep)}
}

// Put records a snapshot, evicting the oldest beyond the retention bound
// and freeing the evicted payload.
func (st *Store) Put(s Snapshot) {
	if st.n == st.keep {
		old := &st.ring[st.next]
		st.evicted++
		st.evictedBytes += old.Bytes()
		old.Payload = nil // release, don't wait for the overwrite below
	} else {
		st.n++
	}
	st.ring[st.next] = s
	st.next = (st.next + 1) % st.keep
}

// Len returns the number of retained snapshots.
func (st *Store) Len() int { return st.n }

// Cap returns the retention bound.
func (st *Store) Cap() int { return st.keep }

// Evicted returns how many snapshots the retention bound has displaced
// over the store's lifetime.
func (st *Store) Evicted() int { return st.evicted }

// EvictedBytes returns the total size of displaced snapshots — the storage
// traffic a bounded ring saved relative to keeping full history resident.
func (st *Store) EvictedBytes() int64 { return st.evictedBytes }

// at returns the i-th retained snapshot, oldest first (i in [0, Len)).
func (st *Store) at(i int) *Snapshot {
	return &st.ring[(st.next-st.n+i+st.keep)%st.keep]
}

// Latest returns the newest retained snapshot (unverified).
func (st *Store) Latest() (Snapshot, bool) {
	if st.n == 0 {
		return Snapshot{}, false
	}
	return *st.at(st.n - 1), true
}

// Restore writes the newest verifiable snapshot into the network and
// returns it, along with how many newer snapshots failed their CRC and
// were skipped. It returns an error only when no retained snapshot
// verifies.
func (st *Store) Restore(net *nn.Network) (Snapshot, int, error) {
	skipped := 0
	for i := st.n - 1; i >= 0; i-- {
		if err := st.at(i).Restore(net); err == nil {
			return *st.at(i), skipped, nil
		}
		skipped++
	}
	return Snapshot{}, skipped, fmt.Errorf("checkpoint: no verifiable snapshot among %d retained: %w", st.n, ErrCorrupt)
}
