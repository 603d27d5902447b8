// Package comm is the message-passing substrate of EasyHPS — the stand-in
// for MPI in the paper's processor-level parallelization.
//
// The runtime only needs ordered, reliable point-to-point messages between
// the master and each member: Message and its kinds, Conn (a worker
// process's socket, every message one tagged binary frame, wire.go) with
// its join handshake, and the LatencyModel of a wire, which the cluster
// simulator (internal/sim) charges its frames and ChanNetwork its sends.
//
// The rank Transport — ChanNetwork, every rank in one OS process over Go
// channels, and TCPTransport, ranks over loopback sockets — is no longer
// used by any runtime path; only the repo benchmark's replay times the
// wire with it.
package comm

import (
	"errors"
	"fmt"
)

// Kind discriminates the runtime protocol messages.
type Kind uint8

const (
	// KindIdle is sent by a slave to announce it is ready for a
	// sub-task (step a of the slave scheduling loop).
	KindIdle Kind = iota + 1
	// KindTask carries a sub-task: the vertex id and the encoded data
	// region (output rect plus input blocks).
	KindTask
	// KindResult carries the computed output block of a sub-task back to
	// the master.
	KindResult
	// KindEnd tells a slave that scheduling has finished and it should
	// shut down.
	KindEnd
	// KindHeartbeat is the liveness beacon of the elastic cluster layer:
	// workers send it periodically and the master echoes it, so both
	// sides can bound how long a link may stay silent.
	KindHeartbeat
	// KindLeave announces a graceful departure from an elastic cluster;
	// the master revokes the member's leases and reassigns its work.
	KindLeave
	// KindTaskBatch carries several sub-tasks coalesced into one message
	// (Batch holds the entries); all of them were computable when the
	// batch was drained, so they are mutually independent.
	KindTaskBatch
	// KindResultBatch carries the coalesced output blocks of a task
	// batch back to the master (Batch holds the entries).
	KindResultBatch
	// KindJobSpec attaches a job to a fleet worker: the master sends it
	// before the first task of a job, carrying the job id in Job and a
	// JSON-encoded job description (kernel spec, partitions, digest) in
	// Payload. The worker builds and caches the kernel state for that job
	// so subsequent task frames only need the job id.
	KindJobSpec
	// KindJobEnd detaches a job from a fleet worker: the job identified
	// by Job has finished (or failed), so the worker frees its cached
	// kernel state. Unlike KindEnd it does not shut the worker down.
	KindJobEnd
)

func (k Kind) String() string {
	switch k {
	case KindIdle:
		return "idle"
	case KindTask:
		return "task"
	case KindResult:
		return "result"
	case KindEnd:
		return "end"
	case KindHeartbeat:
		return "heartbeat"
	case KindLeave:
		return "leave"
	case KindTaskBatch:
		return "task-batch"
	case KindResultBatch:
		return "result-batch"
	case KindJobSpec:
		return "job-spec"
	case KindJobEnd:
		return "job-end"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// TaskEntry is one vertex of a batched task or result message: the same
// (vertex, attempt, payload) triple a KindTask/KindResult message carries
// in its top-level fields.
type TaskEntry struct {
	Vertex  int32
	Attempt int32
	Payload []byte
}

// Message is the envelope exchanged between ranks.
type Message struct {
	From, To int
	Kind     Kind
	// Vertex is the processor-level DAG vertex id for task/result
	// messages.
	Vertex int32
	// Attempt numbers the dispatch attempts of a vertex so that results
	// of timed-out attempts can be recognized and dropped.
	Attempt int32
	// Job scopes task, result, attach and detach messages to one job of a
	// shared fleet, so a worker can hold batches from several concurrent
	// DAGs at once. Zero for single-job (non-fleet) runtimes, whose
	// masters own exactly one DAG.
	Job int32
	// Payload is the application body (encoded blocks).
	Payload []byte
	// Batch holds the entries of a KindTaskBatch/KindResultBatch message;
	// nil for every other kind.
	Batch []TaskEntry
	// More marks a partial result flush: the sender is still working on
	// the rest of the current task batch, so the master must not treat
	// this message as an idle announcement.
	More bool
}

// PayloadLen returns the total application payload carried by m, batch
// entries included — the size the transports account as traffic.
func (m Message) PayloadLen() int {
	n := len(m.Payload)
	for _, e := range m.Batch {
		n += len(e.Payload)
	}
	return n
}

// TaskMessage is the master side of the frame ServeTasks answers: the
// granted entries of one draw, for job (zero outside a fleet). A batch of one
// is the classic KindTask message, byte for byte.
func TaskMessage(job int32, entries []TaskEntry) Message {
	if len(entries) == 1 {
		return Message{Kind: KindTask, Job: job, Vertex: entries[0].Vertex, Attempt: entries[0].Attempt, Payload: entries[0].Payload}
	}
	return Message{Kind: KindTaskBatch, Job: job, Batch: entries}
}

// ErrSend marks an error ServeTasks got back from its send callback, so
// a caller can tell a dead link from a failed computation.
var ErrSend = errors.New("comm: sending results")

// ServeTasks is the worker side of one KindTask or KindTaskBatch frame
// (steps b-d of the slave scheduling loop), the one place the result
// protocol is written down. It passes the frame's entries to run in
// order — a batch's entries are mutually independent, the master drew
// them all from one ready set — and answers through send. Results are
// coalesced and flushed every flush entries (less than 1 means 1); a
// flush that is not the last carries More, so the master does not re-arm
// this worker's sender while the batch is still executing. The last
// frame, the one that announces idleness, is a KindResult for one
// pending result, a KindResultBatch for several and a bare KindIdle for
// none (an empty batch, which no master sends). Result frames echo the
// frame's job id and each entry's attempt stamp.
//
// An error from run ends the frame before the next entry and is returned
// as it is; the results not yet flushed are lost with it, as they are
// with a crashed node. An error from send is returned wrapped in ErrSend.
func ServeTasks(msg Message, flush int, run func(vertex int32, task []byte) ([]byte, error), send func(Message) error) error {
	entries := msg.Batch
	if msg.Kind == KindTask {
		entries = []TaskEntry{{Vertex: msg.Vertex, Attempt: msg.Attempt, Payload: msg.Payload}}
	}
	if flush < 1 {
		flush = 1
	}
	var results []TaskEntry
	for i, e := range entries {
		out, err := run(e.Vertex, e.Payload)
		if err != nil {
			return err
		}
		results = append(results, TaskEntry{Vertex: e.Vertex, Attempt: e.Attempt, Payload: out})
		if len(results) >= flush && i < len(entries)-1 {
			if err := send(Message{Kind: KindResultBatch, Job: msg.Job, Batch: results, More: true}); err != nil {
				return fmt.Errorf("%w: %w", ErrSend, err)
			}
			results = nil
		}
	}
	final := Message{Kind: KindResultBatch, Job: msg.Job, Batch: results}
	switch len(results) {
	case 0:
		final = Message{Kind: KindIdle}
	case 1:
		final = Message{Kind: KindResult, Job: msg.Job, Vertex: results[0].Vertex, Attempt: results[0].Attempt, Payload: results[0].Payload}
	}
	if err := send(final); err != nil {
		return fmt.Errorf("%w: %w", ErrSend, err)
	}
	return nil
}

// ErrClosed is returned by Recv after the transport has been closed and
// drained, and by Send on a closed transport.
var ErrClosed = errors.New("comm: transport closed")

// Transport is one rank's endpoint of the network.
type Transport interface {
	// Rank is this endpoint's rank; the master is rank 0.
	Rank() int
	// Size is the total number of ranks, master included.
	Size() int
	// Send delivers m to rank to. Messages between a fixed pair of ranks
	// arrive in send order.
	Send(to int, m Message) error
	// Recv blocks until a message arrives, returning ErrClosed once the
	// transport is closed and the inbox drained.
	Recv() (Message, error)
	// Close shuts the endpoint down and unblocks pending Recv calls.
	Close() error
}
