package engine_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dag"
	"repro/internal/engine"
)

// FuzzReplay feeds arbitrary bytes, as a checkpoint log, through
// checkpoint.Replay into Job.Replay of one fixed small job — the one
// restore path core, the fleet and the simulator share. A log is refused or
// accepted, never a panic; and whatever prefix was accepted left a state a
// run can resume from: every restored block has its vertex's rect, no
// vertex was restored twice, and every frontier vertex is uncommitted with
// all its predecessors committed.
//
// The log's checksums keep most mutations from ever reaching the engine, so
// with framed false the same bytes are read as bare records instead —
// [vertex u8][n u8][n bytes of payload] — and the engine sees all of them.
func FuzzReplay(f *testing.F) {
	prob, proc, _ := problem(f, "nussinov")
	geom := dag.MatrixGeometry(prob.Size, proc)
	graph := dag.Build(prob.Kernel.Pattern(), geom)
	preds := make(map[int32][]int32)
	for _, u := range graph.Existing() {
		for _, s := range graph.Vertex(u).Post {
			preds[s] = append(preds[s], u)
		}
	}

	// Seeds: a real run's log, and the ways a log goes wrong.
	var log, bare bytes.Buffer
	var records [][]byte // the log cut at its record boundaries
	r := newRig(f, "nussinov", engine.Config[int32]{})
	r.eng.SetCheckpoint(checkpoint.NewWriter(&log))
	r.start()
	for len(r.ready) > 0 {
		v, before := r.ready[0], log.Len()
		r.run(1, v)
		record := log.Bytes()[before:]
		records = append(records, append([]byte(nil), record...))
		payload := record[12 : len(record)-4]
		bare.Write([]byte{byte(v), byte(len(payload))})
		bare.Write(payload)
	}
	whole := log.Bytes()
	f.Add(whole, true)
	f.Add(bare.Bytes(), false)
	f.Add(whole[:len(whole)-7], true) // a torn tail
	for _, at := range []int{0, 5, 9, 13, len(records[0]) - 1, len(records[0]) + 2, len(whole) / 2} {
		flipped := append([]byte(nil), whole...)
		flipped[at] ^= 0x10
		f.Add(flipped, true) // one bit: magic, vertex, length, body, checksum, a later record
	}
	f.Add(bytes.Join([][]byte{records[1], records[0], records[2]}, nil), true)  // two roots swapped: still a valid order
	f.Add(bytes.Join([][]byte{records[len(records)-1], records[0]}, nil), true) // a record before its predecessors
	f.Add(bytes.Join([][]byte{records[0], records[0]}, nil), true)              // a record twice
	var forged bytes.Buffer
	foreign := forgedBlock(f, prob.Codec, geom.Rect(dag.Pos{Row: 1, Col: 1}))
	w := checkpoint.NewWriter(&forged)
	w.Append(9, foreign) // vertex 9's own region, zeroed: accepted
	w.Append(0, foreign) // in range, computable, and another vertex's block
	f.Add(forged.Bytes(), true)
	oversized := append([]byte(nil), whole[:12]...)
	binary.LittleEndian.PutUint32(oversized[8:], 1<<31-1)
	f.Add(append(oversized, whole[12:]...), true) // a header claiming a 2 GiB payload

	f.Fuzz(func(t *testing.T, data []byte, framed bool) {
		eng := engine.New(prob.Kernel.Pattern(), prob.Codec, prob.Size, proc,
			engine.Config[int32]{TaskTimeout: taskTimeout, MaxAttempts: 4})
		restored := make(map[int32]bool)
		replay := func(v int32, payload []byte) error {
			err := eng.Replay(v, payload)
			if err == nil {
				if restored[v] {
					t.Fatalf("vertex %d restored twice", v)
				}
				restored[v] = true
			}
			return err
		}
		if framed {
			n, err := checkpoint.Replay(bytes.NewReader(data), replay)
			if err == nil && n != len(restored) {
				t.Fatalf("Replay counted %d records, the engine took %d", n, len(restored))
			}
		} else {
			for len(data) >= 2 && len(data) >= 2+int(data[1]) {
				if replay(int32(int8(data[0])), data[2:2+int(data[1])]) != nil {
					break // a refused record refuses the log
				}
				data = data[2+int(data[1]):]
			}
		}
		for v := range restored {
			pos := geom.PosOf(v)
			if b := eng.Store().Get(pos); b == nil || b.Rect != geom.Rect(pos) {
				t.Fatalf("vertex %d restored with block %v, want rect %v", v, b, geom.Rect(pos))
			}
		}
		if got := int(eng.Counters().Restored.Load()); got != len(restored) || eng.Remaining() != graph.N-got {
			t.Fatalf("Restored = %d, Remaining = %d after %d accepted records of %d vertices", got, eng.Remaining(), len(restored), graph.N)
		}
		// A refused log fails the run before it starts, but the state behind
		// the accepted prefix must be sound all the same.
		frontier, err := eng.Frontier()
		if err != nil {
			t.Fatalf("Frontier: %v", err)
		}
		for _, v := range frontier {
			if restored[v] {
				t.Fatalf("frontier holds restored vertex %d", v)
			}
			for _, p := range preds[v] {
				if !restored[p] {
					t.Fatalf("frontier vertex %d before its predecessor %d", v, p)
				}
			}
		}
		if len(frontier) == 0 && len(restored) != graph.N {
			t.Fatalf("empty frontier with %d of %d vertices restored", len(restored), graph.N)
		}
	})
}
