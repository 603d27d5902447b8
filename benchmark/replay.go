package main

import (
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"time"

	"repro/internal/cas"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/matrix"
)

type transportKind int

const (
	transportChan transportKind = iota
	transportTCP
)

// replaySettings says which of the optional stages a workload's real path
// has, so the replay walks the same ones.
type replaySettings struct {
	transport  transportKind
	checkpoint bool // master appends every result to a checkpoint log
	cache      bool // master hashes and stores every result in the cas
	// freshShare is the share of a repetition's reference time spent on
	// jobs the system really computes, as the replayed jobs are (1 unless
	// part of the repetition is answered from a whole-job cache).
	freshShare float64
	// sim makes the traced run also report the simulator's pinned
	// scenarios; one workload carries them, since they do not depend on it.
	sim bool
}

// Stage names of the staged replay. Each is one exported call the master
// or a worker makes for every vertex.
const (
	stGather     = "matrix.gather"
	stEncode     = "matrix.encode"
	stTaskHop    = "comm.task"
	stRun        = "core.taskrunner"
	stResultHop  = "comm.result"
	stDecode     = "matrix.decode"
	stProbeDec   = "probe.decode_task"   // DecodeBlocksAny of the task payload, as TaskRunner.Run does inside
	stProbeEnc   = "probe.encode_result" // EncodeBlocks of the output block, likewise
	stPayloadKey = "cas.payloadkey"
	stBlockKey   = "cas.blockkey"
	stPutBlock   = "cas.putblock"
	stPut        = "matrix.put"
	stCheckpoint = "checkpoint.append"

	// The replay's own loop: root, one span per job, one per vertex.
	// Their self time is what the stages do not account for.
	spanReplay = "replay"
	spanJob    = "replay.job"
	spanVertex = "replay.vertex"
)

// replayed is what the staged replay of one workload measured. The replay
// is run several times; every duration here is the fastest of the runs,
// the counts and the kept data are the first run's.
type replayed struct {
	self   map[string]time.Duration // self time per stage
	stages time.Duration            // the stages' self times summed
	// stageShare is, for the first run (the one whose spans are kept), the
	// share of the root span's duration the stages' self times cover.
	stageShare float64
	jobs       int
	vertices   int
	blocks     int   // blocks gathered plus blocks put
	encoded    int64 // task payload bytes through matrix.encode
	decoded    int64 // result payload bytes through matrix.decode
	failed     int   // jobs whose replayed matrix differs from the reference

	// compute is, per kernel, TaskRunner.Run time minus the separately
	// timed decode and encode of the same bytes: the cell loops behind
	// matrix.View, with the thread-level DAG around them.
	compute map[string]time.Duration
	cells   map[string]int
	seq     map[string]time.Duration // the benchmark reference of the same jobs

	// What the layer micro-measurements reuse: the first job's finished
	// store and graph, its median task payload with the blocks behind
	// it, and a bounded sample of result payloads.
	store   *matrix.Store[int32]
	graph   *dag.Graph
	region  []*matrix.Block[int32]
	task    []byte
	results [][]byte
}

const maxKeptResults = 32

// hop is a one-worker transport pair: the master endpoint and the worker
// endpoint of either an in-process ChanNetwork or a loopback TCP link.
type hop struct {
	master, worker comm.Transport
	close          func()
}

func openHop(kind transportKind) (*hop, error) {
	if kind == transportChan {
		nw := comm.NewChanNetwork(2, comm.LatencyModel{})
		return &hop{master: nw.Endpoint(0), worker: nw.Endpoint(1), close: nw.Close}, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	type dialed struct {
		tr  *comm.TCPTransport
		err error
	}
	ch := make(chan dialed, 1) // one send, so the dialer never blocks
	go func() {
		tr, err := comm.DialWorker(ln.Addr().String(), 1, 1, 10*time.Second)
		ch <- dialed{tr, err}
	}()
	master, err := comm.ListenMasterOn(ln, 1, 10*time.Second, comm.TCPOptions{})
	d := <-ch
	if err != nil || d.err != nil {
		if err == nil {
			master.Close()
			err = d.err
		} else if d.err == nil {
			d.tr.Close()
		}
		return nil, fmt.Errorf("opening loopback TCP pair: %w", err)
	}
	return &hop{master: master, worker: d.tr, close: func() { d.tr.Close(); master.Close() }}, nil
}

// toWorker sends m master-to-worker and returns what the worker received;
// toMaster is the way back.
func (h *hop) toWorker(m comm.Message) (comm.Message, error) {
	if err := h.master.Send(1, m); err != nil {
		return comm.Message{}, err
	}
	return h.worker.Recv()
}

func (h *hop) toMaster(m comm.Message) (comm.Message, error) {
	if err := h.worker.Send(0, m); err != nil {
		return comm.Message{}, err
	}
	return h.master.Recv()
}

// replay runs the staged replay sz.replayRuns times and keeps, per stage,
// the fastest run. Only the first run's spans go to rec.
func replay(rec *recorder, jobs []*job, set replaySettings, sz sizes) (*replayed, error) {
	h, err := openHop(set.transport)
	if err != nil {
		return nil, err
	}
	defer h.close()

	var out *replayed
	for run := 0; run < sz.replayRuns; run++ {
		r := rec
		if run > 0 {
			r = newRecorder()
		}
		one, err := replayOnce(r, jobs, set, h, sz.minRefSample, run == 0)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = one
			continue
		}
		out.failed += one.failed
		keepFastest(out.self, one.self)
		keepFastest(out.compute, one.compute)
		keepFastest(out.seq, one.seq)
	}
	out.stages = 0
	for _, d := range out.self {
		out.stages += d
	}
	return out, nil
}

func keepFastest(into, from map[string]time.Duration) {
	for k, d := range from {
		if d < into[k] {
			into[k] = d
		}
	}
}

// replayOnce walks every job's processor DAG in topological order on one
// goroutine and pushes each vertex through the exported calls the master
// and a worker make for it, one span per call. keep retains the first
// job's data for the layer micro-measurements.
func replayOnce(rec *recorder, jobs []*job, set replaySettings, h *hop, minRefSample time.Duration, keep bool) (*replayed, error) {
	out := &replayed{jobs: len(jobs),
		compute: make(map[string]time.Duration), cells: make(map[string]int), seq: make(map[string]time.Duration)}
	for i, d := range newRefTimer(jobs, minRefSample).time(jobs) {
		out.seq[jobs[i].kernel] += d
	}
	root := rec.begin(0, "replay", spanReplay)
	for n, j := range jobs {
		if err := out.replayJob(rec, root, "replay-"+strconv.Itoa(n)+"-"+j.kernel, j, set, h, keep && n == 0); err != nil {
			return nil, err
		}
	}
	rec.end(root)
	out.self = rec.selfTimes(root)
	// What is left of the root span beside the stages is the replay's own
	// loop: the root, one span per job, one per vertex.
	for _, own := range []string{spanReplay, spanJob, spanVertex} {
		delete(out.self, own)
	}
	for _, d := range out.self {
		out.stages += d
	}
	out.stageShare = ratio(out.stages.Seconds(), rec.duration(root).Seconds())
	return out, nil
}

func (out *replayed) replayJob(rec *recorder, root int, id string, j *job, set replaySettings, h *hop, keep bool) error {
	p := j.problem()
	runner, err := core.NewTaskRunner(p, core.Config{Threads: deployThreads, ProcPartition: j.proc, ThreadPartition: j.thread})
	if err != nil {
		return err
	}
	geom := dag.MatrixGeometry(p.Size, j.proc)
	graph := dag.Build(p.Kernel.Pattern(), geom)
	parser := dag.NewParser(graph)
	store := matrix.NewStore[int32](geom)
	var ckpt *checkpoint.Writer
	if set.checkpoint {
		ckpt = checkpoint.NewWriter(io.Discard)
	}
	var cache *cas.Store
	var keys []cas.Key
	if set.cache {
		if cache, err = cas.NewStore(cas.Options{}); err != nil {
			return err
		}
		keys = make([]cas.Key, len(graph.Verts))
	}

	type sized struct {
		v     int32
		bytes int
	}
	var tasks []sized
	jobSpan := rec.begin(root, id, spanJob)
	ready := parser.InitialReady()
	for len(ready) > 0 {
		v := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		vs := rec.begin(jobSpan, id, spanVertex)
		deps := graph.Vertex(v).DataPre
		pos := geom.PosOf(v)

		var blocks []*matrix.Block[int32]
		rec.timed(vs, id, stGather, func() {
			positions := make([]dag.Pos, len(deps))
			for k, d := range deps {
				positions[k] = geom.PosOf(d)
			}
			blocks = store.Gather(positions)
		})
		var payload []byte
		rec.timed(vs, id, stEncode, func() { payload, err = matrix.EncodeBlocks(p.Codec, blocks) })
		if err != nil {
			return err
		}
		var msg comm.Message
		rec.timed(vs, id, stTaskHop, func() {
			msg, err = h.toWorker(comm.Message{Kind: comm.KindTask, Vertex: v, Attempt: 1, Payload: payload})
		})
		if err != nil {
			return err
		}
		var result []byte
		run := rec.timed(vs, id, stRun, func() { result, err = runner.Run(msg.Vertex, msg.Payload) })
		if err != nil {
			return err
		}
		rec.timed(vs, id, stResultHop, func() {
			msg, err = h.toMaster(comm.Message{Kind: comm.KindResult, Vertex: v, Attempt: 1, Payload: result})
		})
		if err != nil {
			return err
		}
		var got []*matrix.Block[int32]
		rec.timed(vs, id, stDecode, func() { got, err = matrix.DecodeBlocks(p.Codec, msg.Payload) })
		if err != nil || len(got) != 1 {
			return fmt.Errorf("replay of %s: bad result payload for vertex %d: %v", id, v, err)
		}
		probe := rec.timed(vs, id, stProbeDec, func() { _, _, err = matrix.DecodeBlocksAny(p.Codec, payload, nil, nil) })
		if err != nil {
			return err
		}
		probe += rec.timed(vs, id, stProbeEnc, func() { _, err = matrix.EncodeBlocks(p.Codec, got) })
		if err != nil {
			return err
		}
		if cache != nil {
			rec.timed(vs, id, stPayloadKey, func() { keys[v] = cas.PayloadKey(msg.Payload) })
			var bk cas.Key
			rec.timed(vs, id, stBlockKey, func() {
				preds := make([]cas.Key, len(deps))
				for k, d := range deps {
					preds[k] = keys[d]
				}
				r := geom.Rect(pos)
				bk = cas.BlockKey(id, r.Row0, r.Col0, r.Rows, r.Cols, preds)
			})
			rec.timed(vs, id, stPutBlock, func() { cache.PutBlock(bk, msg.Payload) })
		}
		rec.timed(vs, id, stPut, func() { store.Put(pos, got[0]) })
		if ckpt != nil {
			rec.timed(vs, id, stCheckpoint, func() { err = ckpt.Append(v, msg.Payload) })
			if err != nil {
				return err
			}
		}
		ready = append(ready, parser.Complete(v)...)
		rec.end(vs)

		out.vertices++
		out.blocks += len(blocks) + 1
		out.encoded += int64(len(payload))
		out.decoded += int64(len(msg.Payload))
		out.compute[j.kernel] += run - probe
		tasks = append(tasks, sized{v, len(payload)})
		if keep && len(out.results) < maxKeptResults {
			out.results = append(out.results, msg.Payload)
		}
	}
	rec.end(jobSpan)
	out.cells[j.kernel] += j.cells()
	if !parser.Finished() || !j.matches(store) {
		out.failed++
	}
	if keep {
		// The task payload of median size, rebuilt from the finished
		// store: what the transport micro-measurements send.
		sort.Slice(tasks, func(a, b int) bool { return tasks[a].bytes < tasks[b].bytes })
		mid := tasks[len(tasks)/2].v
		deps := graph.Vertex(mid).DataPre
		positions := make([]dag.Pos, len(deps))
		for k, d := range deps {
			positions[k] = geom.PosOf(d)
		}
		out.store, out.graph = store, graph
		out.region = store.Gather(positions)
		if out.task, err = matrix.EncodeBlocks(p.Codec, out.region); err != nil {
			return err
		}
	}
	return nil
}
