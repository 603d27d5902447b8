// Package cas is the content-addressed result store: completed DP blocks
// and whole-job results keyed by sha256 digests, shared across jobs and
// across the three layers that can exploit redundancy — the job service
// (whole-job memoization), the masters (per-block memoization) and the
// wire (content-keyed known-sets, so a worker already holding a block is
// never reshipped it).
//
// Keys chain through content: a block's key is derived from the problem
// spec digest, the block's cell rectangle and the content keys of its
// predecessor outputs, so two jobs that overlap without being identical
// still share the prefix of the DAG whose inputs agree. See docs/CACHE.md
// for the derivation, the eviction policy and the metrics.
package cas

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Key is a sha256 content digest — the only key type the store accepts.
type Key [32]byte

// String renders the key as lowercase hex (also the on-disk file stem).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// parseKey is the inverse of String; ok is false for anything that is not
// exactly 64 hex digits.
func parseKey(s string) (Key, bool) {
	var k Key
	if len(s) != 2*len(k) {
		return k, false
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, false
	}
	copy(k[:], b)
	return k, true
}

// Layer labels which consumer hit or missed the store, for the per-layer
// metrics series.
type Layer string

const (
	// LayerServer is whole-job memoization in the job service.
	LayerServer Layer = "server"
	// LayerMaster is per-block memoization in the dispatching masters.
	LayerMaster Layer = "master"
	// LayerWire is the content-keyed known-set consulted before shipping
	// a data-region block to a worker.
	LayerWire Layer = "wire"
)

// JobKey derives the whole-job cache key from a problem-spec content
// digest (the canonical fingerprint of kernel plus inputs, scheduling
// knobs excluded).
func JobKey(specDigest string) Key {
	return sha256.Sum256([]byte("easyhps-cas:job:1:" + specDigest))
}

// BlockKey derives the per-vertex cache key: spec digest, the block's
// cell rectangle, and the content keys of its predecessor outputs in the
// graph's dependency order. Chaining through predecessor content (rather
// than vertex ids) makes the key self-validating — any divergence in any
// transitive input changes every downstream key.
func BlockKey(specDigest string, row0, col0, rows, cols int, preds []Key) Key {
	h := sha256.New()
	fmt.Fprintf(h, "easyhps-cas:block:1:%s:%d:%d:%d:%d:", specDigest, row0, col0, rows, cols)
	for _, p := range preds {
		h.Write(p[:])
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// RegionKey derives the wire key of a region of a committed block — what a
// task is shipped of a predecessor it reads only part of — from the block's
// content key and the region's cell rectangle: equal keys still mean equal
// cells, and no cell is hashed a second time. It names a record of the keyed
// wire format only; BlockKey keeps chaining through the content keys of
// whole predecessors, so no cache entry moves.
func RegionKey(block Key, row0, col0, rows, cols int) Key {
	h := sha256.New()
	fmt.Fprintf(h, "easyhps-cas:region:1:%d:%d:%d:%d:", row0, col0, rows, cols)
	h.Write(block[:])
	var k Key
	h.Sum(k[:0])
	return k
}

// PayloadKey is the content key of one encoded block payload — the hash
// both master and worker can compute independently, which is what lets
// the wire layer's known-sets agree without extra round trips.
func PayloadKey(payload []byte) Key {
	return sha256.Sum256(payload)
}
