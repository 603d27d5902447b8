package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/cas"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/dag"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Layer micro-measurements: one exported call (or the short sequence a
// vertex makes) of each layer package, run on the data the replay of the
// workload produced — its processor graph, its median task payload, its
// result payloads — for at least floor each.

const mb = 1 << 20

func mbPerSec(bytes int64, d time.Duration) float64 {
	return ratio(float64(bytes)/mb, d.Seconds())
}

func measureDAG(m metrics, r *replayed, floor time.Duration) {
	pat, geom := r.graph.Pattern, r.graph.Geom
	m.set("dag.build_us", float64(perOp(floor, func() { dag.Build(pat, geom) }))/1e3)
	drain := perOp(floor, func() {
		p := dag.NewParser(r.graph)
		ready := p.InitialReady()
		for len(ready) > 0 {
			v := ready[len(ready)-1]
			ready = append(ready[:len(ready)-1], p.Complete(v)...)
		}
	})
	m.set("dag.drain_ns_per_vertex", float64(drain)/float64(r.graph.N))
}

func measureSched(m metrics, r *replayed, floor time.Duration) {
	n := float64(r.graph.N)
	ids := r.graph.Existing()
	draw := perOp(floor, func() {
		d := sched.NewDynamic()
		d.Ready(ids...)
		d.Close() // NextBatch hands out what is queued, then reports the end
		for {
			if _, more := d.NextBatch(0, fleetBatch); !more {
				return
			}
		}
	})
	m.set("sched.nextbatch_ns_per_vertex", float64(draw)/n)

	lease := perOp(floor, func() {
		reg, leases, ot := sched.NewRegisterTable(), sched.NewLeaseTable(), sched.NewOvertimeQueue()
		now := time.Now()
		for _, v := range ids {
			attempt, _ := reg.Register(v)
			leases.Grant(v, 1, attempt, now)
			ot.Add(v, attempt, now.Add(time.Minute))
			reg.Accept(v, attempt)
			ot.Remove(v)
			leases.Release(v)
		}
	})
	m.set("sched.lease_cycle_ns", float64(lease)/n)
}

// measureKeyedCodec times the content-keyed wire format on the median
// task's data region with half its blocks shipped in full and half as
// references, the shape a warm worker sees.
func measureKeyedCodec(m metrics, r *replayed, floor time.Duration) error {
	codec := matrix.BinaryCodec[int32]{}
	half := len(r.region) / 2
	var full []matrix.KeyedBlock[int32]
	var refs []matrix.BlockRef
	held := make(map[[32]byte]*matrix.Block[int32])
	for i, b := range r.region {
		one, err := matrix.EncodeBlocks(codec, []*matrix.Block[int32]{b})
		if err != nil {
			return err
		}
		key := [32]byte(cas.PayloadKey(one))
		if i < half {
			refs = append(refs, matrix.BlockRef{Key: key, Rect: b.Rect})
			held[key] = b
		} else {
			full = append(full, matrix.KeyedBlock[int32]{Key: key, Block: b})
		}
	}
	payload, err := matrix.EncodeBlocksKeyed(codec, full, refs)
	if err != nil {
		return err
	}
	enc := perOp(floor, func() { _, err = matrix.EncodeBlocksKeyed(codec, full, refs) })
	if err != nil {
		return err
	}
	resolve := func(k [32]byte) (*matrix.Block[int32], bool) { b, ok := held[k]; return b, ok }
	dec := perOp(floor, func() { _, _, err = matrix.DecodeBlocksAny(codec, payload, resolve, nil) })
	if err != nil {
		return err
	}
	m.set("matrix.keyed_encode_mb_per_s", mbPerSec(int64(len(payload)), enc))
	m.set("matrix.keyed_decode_mb_per_s", mbPerSec(int64(len(payload)), dec))
	return nil
}

// measureComm times a KindTask message of the workload's median task
// payload there and a KindIdle back, on both transports.
func measureComm(m metrics, r *replayed, floor time.Duration) error {
	for _, kind := range []transportKind{transportChan, transportTCP} {
		h, err := openHop(kind)
		if err != nil {
			return err
		}
		trip := perOp(floor, func() {
			if _, err = h.toWorker(comm.Message{Kind: comm.KindTask, Vertex: 1, Attempt: 1, Payload: r.task}); err == nil {
				_, err = h.toMaster(comm.Message{Kind: comm.KindIdle})
			}
		})
		h.close()
		if err != nil {
			return fmt.Errorf("transport round trip: %w", err)
		}
		us := float64(trip) / 1e3
		if kind == transportChan {
			m.set("comm.chan_roundtrip_us", us)
		} else {
			m.set("comm.tcp_roundtrip_us", us)
			m.set("comm.tcp_mb_per_s", mbPerSec(int64(len(r.task)), trip))
		}
	}
	return nil
}

func measureCAS(m metrics, r *replayed, floor time.Duration) error {
	var total int64
	for _, p := range r.results {
		total += int64(len(p))
	}
	n := float64(len(r.results))
	keys := make([]cas.Key, len(r.results))
	hash := perOp(floor, func() {
		for i, p := range r.results {
			keys[i] = cas.PayloadKey(p)
		}
	})
	m.set("cas.payloadkey_mb_per_s", mbPerSec(total, hash))

	preds := keys[:min(3, len(keys))]
	bkeys := make([]cas.Key, len(r.results))
	blockKey := perOp(floor, func() {
		for i := range bkeys {
			bkeys[i] = cas.BlockKey("benchmark", i, i, 64, 64, preds)
		}
	})
	m.set("cas.blockkey_ns", float64(blockKey)/n)

	var err error
	put := perOp(floor, func() {
		var store *cas.Store
		if store, err = cas.NewStore(cas.Options{}); err != nil {
			return
		}
		for i, p := range r.results {
			store.PutBlock(bkeys[i], p)
		}
	})
	if err != nil {
		return err
	}
	m.set("cas.putblock_us", float64(put)/n/1e3)

	store, err := cas.NewStore(cas.Options{})
	if err != nil {
		return err
	}
	for i, p := range r.results {
		store.PutBlock(bkeys[i], p)
	}
	get := perOp(floor, func() {
		for _, k := range bkeys {
			store.GetBlock(k, cas.LayerMaster)
		}
	})
	m.set("cas.getblock_us", float64(get)/n/1e3)
	return nil
}

func measureCheckpoint(m metrics, r *replayed, floor time.Duration) error {
	var total int64
	for _, p := range r.results {
		total += int64(len(p))
	}
	var log bytes.Buffer
	var err error
	appendAll := perOp(floor, func() {
		log.Reset()
		w := checkpoint.NewWriter(&log)
		for i, p := range r.results {
			if err == nil {
				err = w.Append(int32(i), p)
			}
		}
	})
	if err != nil {
		return err
	}
	m.set("checkpoint.append_mb_per_s", mbPerSec(total, appendAll))
	read := perOp(floor, func() {
		_, err = checkpoint.Replay(bytes.NewReader(log.Bytes()), func(int32, []byte) error { return nil })
	})
	if err != nil {
		return err
	}
	m.set("checkpoint.replay_mb_per_s", mbPerSec(total, read))
	return nil
}

// simScenarios are the pinned scheduling scenarios whose virtual-time
// makespans ride along: deterministic, so a zero-noise guard that a
// scheduling change did not cost schedule quality.
var simScenarios = []string{"fair-share", "straggler-rescue", "tune-mixed-auto", "warm-cache"}

func measureSim(m metrics) error {
	for _, name := range simScenarios {
		sc, err := sim.LoadScenario(filepath.Join("internal", "sim", "testdata", name+".scenario"))
		if err != nil {
			return err
		}
		res, err := sc.Run(0)
		if err != nil {
			return err
		}
		if res.RunErr != nil {
			return fmt.Errorf("scenario %s: %w", name, res.RunErr)
		}
		m.set("sim."+name+".makespan_vms", float64(res.Cluster.Elapsed())/float64(time.Millisecond))
	}
	return nil
}
