#!/usr/bin/env bash
# The canonical check for this repository: formatting, vet, build, and the
# full test suite under the race detector (the job service multiplexes
# concurrent jobs onto one shared cluster — exactly where -race earns its
# keep). CI and pre-push hooks should run this script and nothing else.
#
# Flags:
#   -soak   additionally run the batched-dispatch fault soak (build tag
#           "soak": 200 randomized kill/partition/leave runs of two
#           concurrent jobs on one fleet, ~2 min).
#   -sim    additionally replay the scenario regression suite at extra
#           fixed seeds (the default seeds already run under go test).
#   -bench  additionally run the repo benchmark's swgg-inproc and
#           edit-inproc workloads (~15 s each) and fail if either falls
#           back under its floor: the kernels' block-run scan (swgg), or
#           the shipping of declared data regions instead of whole blocks
#           or the result block that is its own payload (edit), has been
#           lost.
set -euo pipefail
cd "$(dirname "$0")/.."

soak=0
sim=0
bench=0
for arg in "$@"; do
    case "$arg" in
    -soak) soak=1 ;;
    -sim) sim=1 ;;
    -bench) bench=1 ;;
    *)
        echo "usage: scripts/ci.sh [-soak] [-sim] [-bench]" >&2
        exit 2
        ;;
    esac
done

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# Scheduling tests are event-driven: FakeClock advances plus notifiers
# (sched's onWait hook, the driver's Progress channel, a job's
# OnProgress, Registry.WaitLive, a harness worker's exit), never
# wall-clock polling.
# A time.Sleep in these test files reintroduces the flaky, slow waits
# this repo spent several PRs removing — and the sim package promises
# virtual-time determinism outright. Fail fast on any new one. The
# scheduling libraries themselves (the clocks and tables of sched, the
# engine's state machines, the simulator) sleep nowhere either: a test
# waits on a notifier, never on a poll hidden in a helper.
sleeps=$( (grep -rn 'time\.Sleep' internal/sched internal/engine internal/sim --include='*.go'
    grep -rn 'time\.Sleep' internal/fleet --include='*_test.go') 2>/dev/null || true)
if [ -n "$sleeps" ]; then
    echo "time.Sleep in scheduling code or its test files (use FakeClock advances and event hooks instead):" >&2
    echo "$sleeps" >&2
    exit 1
fi

# Counters are the typed sync/atomic forms (atomic.Int64, Uint32, Pointer,
# ...), which cannot be read non-atomically. The function-style calls on a
# plain variable can be mixed with plain reads and writes — the race the
# atomic-consistency lint rule hunted across the whole program until it was
# replaced by this grep, which forbids the style instead.
atomics=$(grep -rnE 'atomic\.(Add|Load|Store|Swap|CompareAndSwap)(Int32|Int64|Uint32|Uint64|Uintptr|Pointer)\(' \
    --include='*.go' . 2>/dev/null || true)
if [ -n "$atomics" ]; then
    echo "function-style sync/atomic calls (use the typed atomic.Int64/Uint32/Pointer forms instead):" >&2
    echo "$atomics" >&2
    exit 1
fi

go vet ./...
# The 2D/1D kernels' max-plus sweep and the wavefront kernels' wave scan
# have amd64 assembly bodies (go vet's asmdecl checks them against their Go
# declarations above); the portable bodies must keep building where there
# are none.
GOARCH=arm64 go vet ./internal/dp/
# Project-specific invariants go vet cannot see, six rules: ctx-select
# (blocking channel ops with a ctx in scope select on ctx.Done()),
# timer-leak (no time.After in a loop, no time.Tick), naked-background (no
# context.Background/TODO in internal/ libraries), lock-hierarchy (the
# order lint/lockorder.conf declares, through calls), blocking-under-lock
# (no channel op or WaitGroup.Wait under any mutex, no blocking call under
# a declared one, through calls) and kind-exhaustive (switches over
# comm.Kind reject unknown frames) — see docs/ANALYSIS.md. Any finding
# fails the build; deliberate exceptions must carry an audited
# //lint:ignore directive with a reason.
go run ./cmd/easyhps-vet ./...
go build ./...
go test -race ./...
# The elastic suite (a one-job fleet over the fault harness: kill, partition,
# join, restart, the attach-time refusal of a drifted builder, every result delivered
# twice, speculative rescue, backlog stealing, no hunger counted while a
# lone worker computes one long block) and the registry's quorum
# wait are the most schedule-sensitive code in the repo; run them a second
# time under -race with caching off so a lucky first pass cannot hide a
# flaky membership, lease, or attempt-arbitration race.
go test -race -count=1 -run 'TestElastic|TestMasterRestart|TestPartitioned|TestClusterRejects|TestDuplicateResultIdempotent|TestSpeculationRescues|TestStealRebalances|TestAutoTunesOverTCP|TestWorkerTakesFleet|TestBusyWorkerIsNotHungry' ./internal/fleet/
go test -race -count=1 -run 'TestRegistryWaitLive' ./internal/core/
# The fleet's own suite — concurrent DAGs with a mid-run worker kill, the
# white-box arbitration tests (duplicate-result idempotence, fake-clock
# poisoned-job isolation and speculation, stealing scoped per job) and the
# end-to-end job service on a fleet, attached over TCP or its own
# in-process members (priority order, goroutines per job, exact counters)
# — interleaves several jobs' lease and attempt namespaces over one pool;
# rerun it uncached for the same reason.
go test -race -count=1 -run 'TestFleetConcurrentJobsWorkerKill|TestFleetDuplicateResultIdempotent|TestFleetPoisonedJobIsolationFakeClock|TestFleetSpeculationFakeClock|TestFleetStealFeedsHungryMember|TestFleetCheckpointResume|TestFleetAutoTunesOverTCP|TestJoinInProcessMembers' ./internal/fleet/
go test -race -count=1 -run 'TestFleetService|TestInProcess' ./internal/server/
# The job engine and the pool above the jobs, under all three of them:
# generated schedules — draws under every shipped draw order, leases, results
# delivered late and twice, expiries, revocations, steals, backups, hunger
# passes, ticks — on the shipped state machines, with the exactly-once,
# predecessor, quota, fair-share-account and draw-order invariants checked
# after every step; and the per-vertex core as the thread level drives it —
# threads drawing, attempts accepted or failing in a panic and queued again,
# never a backup — with accept-once by stamp and the MaxAttempts rule
# checked the same way. Seeded, so a failure
# names its seed; uncached, so the list above cannot pass on yesterday's run
# of it.
go test -race -count=1 -run 'TestRandomSchedules' ./internal/engine/
# And the master driver over RunContext's in-process members: under BCW a
# vertex that times out after its owner's static queue is drained must still
# find a drawer, and the static schedule's workers are the registry's member
# ids; the control tick must steal a stalled member's batch backlog toward a
# member whose draw came back empty; members that all crash silently must
# end the run by RunTimeout; an in-process member is never swept for
# heartbeats, so a beacon goroutine starved under -race cannot cost one; and a job that ends while its spec
# frame and task wait on an in-process member's link still attaches there,
# from the Job handed over with the frame. They are timing-dependent (stalls
# against timeouts and ticks, a job's end against its frames), so they must
# not pass on a cached run.
go test -race -count=1 -run 'TestBlockCyclicRequeueAfterOwnerDrained|TestRunBlockCyclic|TestStealRebalancesBatchBacklog|TestAllSlavesDeadAborts|TestInProcessMemberNeverSwept|TestInProcessMemberAttachesEndedJob|TestLocalClosedLink' ./internal/core/
# The thread level's faults and its shared block, for the same reason: a
# panicking sub-block recovered and retried in place, at one thread the
# whole block, and a slow sub-block completing at MaxAttempts 1; every
# compute thread's Row writing inside the task's result block; and every
# library kernel bit-identical at two and four threads that split each
# block's rows and columns. The goroutine that calls Run computes as thread
# 0 beside its helpers, all in one block, so these interleavings are the
# thread level's to keep.
go test -race -count=1 -run 'TestWorkerPanicRecovered|TestOneThreadPanicRetriesBlock|TestNussinovWithFaults|TestPanickingRowRecovered|TestSlowSubBlockIsNoFailure|TestHelpersWriteInPlace|TestPanickingSubBlockRetriedInPlace' ./internal/core/
go test -race -count=1 -run 'TestKernelsOverViewsMatchSequential' ./internal/dp/
# And a worker's block cache on the keyed wire: its outputs stay unnamed
# until the master's references name them, with no hash, over a cached
# RunContext and a fleet job over loopback TCP; a block of another job, or
# an output computed twice (a stalled attempt timed out), is named only
# after a hash checks it. The stall races the task timeout, so these must
# not pass on a cached run either.
go test -race -count=1 -run 'TestWorkerHashesNothingItComputed|TestWorkerChecksAnotherJobsBlock|TestWorkerChecksADuplicateOutput|TestTaskRunner' ./internal/core/

# The one multi-process example, executed and not only compiled: a master
# that forks two worker processes into a fleet over loopback TCP, and exits
# non-zero unless their score is the sequential reference's.
go run ./examples/distributed
# And the one run of a user-defined (Custom) pattern through the public API:
# validated by easyhps.ValidatePattern, then computed on the in-process
# cluster, it exits non-zero unless it matches its sequential reference.
go run ./examples/customdag

# Coverage ratchet for the task hot path (dispatch, wire codec, runtime).
# The minimums sit just under the measured numbers at the time each was
# set; raise them when coverage improves, never lower them.
check_cover() {
    pkg=$1 min=$2
    # A failing test fails the stage with its output, not as a coverage
    # that could not be read off it.
    if ! out=$(go test -short -cover "./$pkg/" 2>&1); then
        echo "$out" >&2
        echo "coverage: the tests of $pkg failed" >&2
        exit 1
    fi
    pct=$(printf '%s\n' "$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [ -z "$pct" ]; then
        echo "coverage: could not measure $pkg" >&2
        exit 1
    fi
    if ! awk -v p="$pct" -v m="$min" 'BEGIN { exit !(p >= m) }'; then
        echo "coverage: $pkg at ${pct}% — below the ${min}% ratchet" >&2
        exit 1
    fi
    echo "coverage: $pkg ${pct}% (>= ${min}%)"
}
check_cover internal/sched 92
# The read path under every kernel cell (View.Get, runs), the block payload
# codec with its refusals, and the kernels themselves, computed block by
# block against their sequential references.
check_cover internal/matrix 95
check_cover internal/dp 91
check_cover internal/comm 88
check_cover internal/core 94.5
check_cover internal/engine 90
check_cover internal/fleet 90
check_cover internal/cas 90
# The job service's Go client, against httptest stubs: Wait's held status
# requests, the 404 and 429 mappings, every route.
check_cover internal/client 91.5
# The job service itself: admission, single flight, the whole-job cache,
# held status requests, the in-process members' link and the metrics.
check_cover internal/server 90
# The CLIs' shared half: the kernel table's reports.
check_cover internal/cli 90
# The DAG Pattern Model: the library patterns, the parser and dag.Validate
# with the planted patterns it must refuse.
check_cover internal/dag 94
check_cover internal/sim 88.5
check_cover internal/tune 87
# The analyzer itself: the fixture suites for every rule keep the
# short-mode number here; the repo-wide gates only run un-short.
check_cover internal/lint 76

# Size ratchet beside the coverage one. The scheduling state machines are
# internal/engine — Job for one DAG job, Pool for what sits above the jobs
# of a shared worker pool — over the draw orders and tables of
# internal/sched; core's master driver drives them (for the members of its
# registry: RunContext's and a fleet's, in process or over TCP, and the
# simulator's), and a second copy of anything the engine holds must not
# arrive unnoticed. (internal/sched is
# in the set so that code moved between core and sched does not count as
# deleted; internal/cluster left it when its registry moved beside the
# driver in core.) The bound is the measured count of non-test lines:
# lower it when code is deleted, never raise it.
check_lines() {
    max=$1
    shift
    lines=$(for pkg in "$@"; do ls "$pkg"/*.go | grep -v '_test\.go$'; done | xargs cat | wc -l)
    if [ "$lines" -gt "$max" ]; then
        echo "size: $* hold $lines non-test lines — above the $max ratchet" >&2
        exit 1
    fi
    echo "size: $* $lines non-test lines (<= $max)"
}
check_lines 6687 internal/core internal/fleet internal/sim internal/engine internal/sched
# The transport: wire frames, the join handshake, and the channel network
# and loopback TCP pair that only the repo benchmark's replay still times
# (no runtime path uses either). A second handshake or master rendezvous
# must not arrive unnoticed.
check_lines 1193 internal/comm
# The master holds a committed block one way, matrix.Store; a second block
# store must not arrive unnoticed. And a view reads one way down a column,
# matrix.View.Band — a column run is a band of width one — and writes one
# way, into the out slice a kernel's Row is handed (View.Set is gone).
check_lines 1038 internal/matrix

# And the 2D/1D kernels sweep source rows across a row segment (their Row,
# over View.Band) instead of walking a column per cell: no non-test Go
# names the per-cell column walks or a View.Col read. A per-cell column
# walk must not return unnoticed.
colwalks=$(grep -rnE --include='*.go' '(^|[^A-Za-z0-9_])(splitRuns|colRuns)\(|View(\[[^]]*\])?\)?\.Col([^A-Za-z0-9_]|$)|View\[[^]]*\]\) Col\(|\.Col\(i' . |
    grep -v '_test\.go:' || true)
if [ -n "$colwalks" ]; then
    echo "calls: a 2D/1D scan sweeps rows through View.Band, not a per-cell column walk:" >&2
    echo "$colwalks" >&2
    exit 1
fi
echo "calls: no splitRuns, colRuns or View.Col in non-test Go"

# And a kernel states its recurrence once: the runtime calls Kernel.Row, a
# per-cell kernel (core.CellKernel) runs through the one adapter core.Cells,
# and a Row writes the out slice it is handed. So no non-test Go names the
# optional-method probe or its unexported adapter, derives a Cell from its
# Row ("a row segment of one"), or writes through a view's Set, and in
# internal/dp only Dominance43, the one per-cell library kernel, declares a
# Cell. The library kernels' size is held beside it: a second entry point
# per kernel must not return unnoticed.
entries=$( (grep -rnE --include='*.go' '(^|[^A-Za-z0-9_])(RowKernel|cellRows)([^A-Za-z0-9_]|$)|a row segment of one|View(\[[^]]*\])?\) Set\(|(^|[^A-Za-z0-9_.])(v|view)\.Set\(' . |
    grep -v '_test\.go:'
    grep -nE '^func \([^)]*\) Cell\(' $(ls internal/dp/*.go | grep -v '_test\.go$') /dev/null |
        grep -v '(d \*Dominance43) Cell(') || true)
if [ -n "$entries" ]; then
    echo "calls: a kernel's one recurrence entry point is Kernel.Row (per-cell kernels through core.Cells):" >&2
    echo "$entries" >&2
    exit 1
fi
echo "calls: no RowKernel, cellRows, Cell-from-Row wrapper or View.Set in non-test Go"
check_lines 1570 internal/dp

# And every 2D/1D scan of SWGG and Nussinov is the one max-plus sweep,
# dp.maxPlus, with its vector body: no non-test Go names SWGG's deleted
# scalar gap scans. A second cell loop beside the sweep must not return
# unnoticed.
gapscans=$(grep -rnE --include='*.go' '(^|[^A-Za-z0-9_])(columnGaps|rowGaps)([^A-Za-z0-9_]|$)' . |
    grep -v '_test\.go:' || true)
if [ -n "$gapscans" ]; then
    echo "calls: SWGG's gap scans are dp.maxPlus sweeps:" >&2
    echo "$gapscans" >&2
    exit 1
fi
echo "calls: no columnGaps or rowGaps in non-test Go"

# And SWGG and Nussinov finalize a row segment a group of eight cells at a
# time (dp.settle inside the group, then one maxPlus of the group's rows to
# the cells after it): no non-test Go in internal/dp hands maxPlus a single
# source row, left[:1] or out[t:t+1]. A per-cell offer must not return
# unnoticed.
oneoffers=$(grep -nE 'maxPlus\(.*(\[:1\]|\[([A-Za-z0-9_]+) ?: ?\2 ?\+ ?1\])' $(ls internal/dp/*.go | grep -v '_test\.go$') /dev/null || true)
if [ -n "$oneoffers" ]; then
    echo "calls: a finalized cell is offered with its group, not by a one-row maxPlus:" >&2
    echo "$oneoffers" >&2
    exit 1
fi
echo "calls: no one-row maxPlus offer in non-test internal/dp"

# And every wavefront kernel's Row (EditDistance, LCS, Needleman-Wunsch) is
# the one wave scan, dp.wave, with its vector body: no non-test Go in
# internal/dp but the scan's portable body (wave.go) walks the row above a
# cell at a time. A per-cell chain beside the scan must not return
# unnoticed.
wavechains=$(grep -nE 'range north([^A-Za-z0-9_]|$)' $(ls internal/dp/*.go | grep -vE '_test\.go$|/wave\.go$') /dev/null || true)
if [ -n "$wavechains" ]; then
    echo "calls: a wavefront Row is the dp.wave scan, not a per-cell loop over the row above:" >&2
    echo "$wavechains" >&2
    exit 1
fi
echo "calls: no per-cell range north loop in non-test internal/dp outside the wave scan"

# The analyzer was the largest package outside benchmark/ (2727 lines) until
# PR 25 audited it rule by rule; a rule must catch a planted bug that go vet
# and -race miss to come back (docs/ANALYSIS.md).
check_lines 2158 internal/lint
# The DAG Pattern Model states a block's cell order once (Pattern.RowOrder)
# and checks a pattern with one validator (dag.Validate); a second order or
# check must not arrive unnoticed.
check_lines 1123 internal/dag

# And what keeps it a state machine: the engine may be driven from a
# socket, an event loop or a test, so it imports none of its drivers, no
# membership table, no transport and no network.
engine_imports=$(go list -f '{{join .Imports "\n"}}' ./internal/engine |
    grep -E "^(repro/internal/(core|comm|fleet|sim|server)|net)(/.*)?\$" || true)
if [ -n "$engine_imports" ]; then
    echo "imports: internal/engine must stay sans I/O, but imports:" >&2
    echo "$engine_imports" >&2
    exit 1
fi
echo "imports: internal/engine names none of core, comm, fleet, sim, server, net"

# And one per-vertex core for both levels: engine.Attempts holds the
# register table and the overtime queue of every DAG the runtime schedules
# — a Job's, and each block's slave DAG at the thread level — and the
# MaxAttempts count over both. So no non-test Go outside internal/engine
# and benchmark/ builds either table, and no non-test code in internal/core
# keeps a panic ledger. A second copy of the start / expire / fail /
# accept-once scheme must not arrive unnoticed.
cores=$( (grep -rnE --include='*.go' 'sched\.New(OvertimeQueue|RegisterTable)\(' . | grep -v '_test\.go:' |
        grep -vE '^\./(internal/engine|benchmark)/'
    grep -nE '(^|[^A-Za-z0-9_.])panics([[:space:]]+map|:|\[)|\.panics([^A-Za-z0-9_]|$)' \
        $(ls internal/core/*.go | grep -v '_test\.go$') /dev/null) || true)
if [ -n "$cores" ]; then
    echo "calls: both levels start, expire, fail and accept through engine.Attempts:" >&2
    echo "$cores" >&2
    exit 1
fi
echo "calls: no overtime queue or register table outside internal/engine and benchmark/, no panic ledger in core"

# And the thread level restarts a dead compute thread and races no slow one:
# a goroutine cannot die apart from its process, so a kernel panic is
# recovered and its sub-block queued again at once, and nothing times a
# compute thread, starts a backup of its sub-block or copies one out of a
# scratch block — every thread writes in place in the task's result block,
# through matrix.View's one mode. So no non-test code in internal/core names
# the deleted thread-level timeout, its stall fault, its requeue counter, an
# overdue pass (nor internal/engine) or a timer callback, and none in
# internal/matrix names a view's second mode. A watch over the compute
# threads must not return unnoticed.
watch=$( (grep -nE 'SubTaskTimeout|StallSubTask|SubRequeues|Overdue\(|time\.AfterFunc' \
        $(ls internal/core/*.go | grep -v '_test\.go$') /dev/null
    grep -nF 'Overdue(' $(ls internal/engine/*.go | grep -v '_test\.go$') /dev/null
    grep -nF 'inPlace' $(ls internal/matrix/*.go | grep -v '_test\.go$') /dev/null) || true)
if [ -n "$watch" ]; then
    echo "calls: the thread level has no watch, no backup and no scratch copy-out:" >&2
    echo "$watch" >&2
    exit 1
fi
echo "calls: no thread-level timeout, stall, requeue count, overdue pass or timer in core, no second view mode in matrix"

# And a fleet worker is told its terms, not configured: the welcome carries
# the fleet's heartbeat period, its miss count and the batch its results
# flush by. So fleet.WorkerOptions holds no HeartbeatInterval,
# HeartbeatMiss or TaskDelay (the fault harness's delay is an unexported
# field), and easyhps-worker declares no -hb, -hb-miss, -steal or -batch
# flag. A worker restating a master's decision must not return unnoticed.
told=$( (awk '/^type WorkerOptions struct/,/^}/ { print FILENAME ":" FNR ":" $0 }' \
        $(ls internal/fleet/*.go | grep -v '_test\.go$') | grep -E 'HeartbeatInterval|HeartbeatMiss|TaskDelay'
    grep -nE 'flag\.[A-Za-z]+\("(hb|hb-miss|steal|batch)"' cmd/easyhps-worker/*.go /dev/null) || true)
if [ -n "$told" ]; then
    echo "calls: a fleet worker takes its terms from the welcome:" >&2
    echo "$told" >&2
    exit 1
fi
echo "calls: no timing option on a fleet worker, no easyhps-worker timing or batch flag"

# And hunger is read off the master: a member whose draw came back empty is
# parked, and each control tick runs the pool's hunger pass for it
# (core.Driver.Tick). No member announces hunger, so no non-test Go names
# the hunger frame, the user frame nothing sent, a hunger delay, the
# worker's activity clock behind it or the simulator's hunger timer. A
# member-side hunger signal must not return unnoticed.
beacons=$(grep -rnE --include='*.go' '(^|[^A-Za-z0-9_])(KindHunger|KindUser|HungerAfter|noteActivity|armHunger)([^A-Za-z0-9_]|$)' . |
    grep -v '_test\.go:' || true)
if [ -n "$beacons" ]; then
    echo "calls: hunger is the master's reading of an empty draw, not a member's beacon:" >&2
    echo "$beacons" >&2
    exit 1
fi
echo "calls: no KindHunger, KindUser, HungerAfter, noteActivity or armHunger in non-test Go"

# And one feed rule for every member: a member whose idle token comes back
# joins the driver's parked queue, and each step that queues work or frees
# quota room walks it from the front (core.Driver.feed), handing each draw
# to the member it names. So no non-test code in internal/core waits on a
# condition variable or broadcasts one — a commit wakes no sender but the
# one it hands a draw — and none in internal/sim keeps an idle list or
# walks one of its own. A second feed rule must not return unnoticed.
feeds=$( (grep -nE 'sync\.Cond|\.Broadcast\(' $(ls internal/core/*.go | grep -v '_test\.go$') /dev/null
    grep -nE '(^|[^A-Za-z0-9_])(dispatchAll|noteIdleIfFree)([^A-Za-z0-9_]|$)|(^|[^A-Za-z0-9_])c\.idle([^A-Za-z0-9_]|$)' \
        $(ls internal/sim/*.go | grep -v '_test\.go$') /dev/null) || true)
if [ -n "$feeds" ]; then
    echo "calls: the driver's parked queue names who draws next, for every member:" >&2
    echo "$feeds" >&2
    exit 1
fi
echo "calls: no sync.Cond or Broadcast in non-test internal/core, no idle list or walk in non-test internal/sim"

# And the worker is one loop, as the master is one driver: core.Worker.Serve
# is the one non-test caller of comm.ServeTasks, and TaskRunner.Run the one
# of computeBlock, for in-process members and fleet worker processes alike;
# and a job has one constructor, core.Driver.NewJob, the one non-test caller
# of engine.New, for RunContext, a fleet and the simulator alike. A second
# worker or job constructor must not arrive unnoticed.
# (engine.New's pattern takes an explicit instantiation, engine.New[T](, too.)
for call in 'computeBlock\(' 'comm\.ServeTasks\(' 'engine\.New(\[[^]]*\])?\('; do
    sites=$(grep -rnE --include='*.go' "$call" . | grep -v '_test\.go:' |
        grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
    if [ "$(printf '%s\n' "$sites" | grep -c .)" -gt 1 ]; then
        echo "calls: $call has more than one non-test call site:" >&2
        echo "$sites" >&2
        exit 1
    fi
done
echo "calls: computeBlock, comm.ServeTasks and engine.New have one non-test call site each"

# And the service has one path to a driver: the job manager runs every job
# on one long-lived fleet — an attached one, or its own with in-process
# members — so no non-test code in internal/server builds a per-job cluster
# through core.RunContext.
service_runs=$(grep -HnF 'core.RunContext' $(ls internal/server/*.go | grep -v '_test\.go$') |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$service_runs" ]; then
    echo "calls: internal/server must run jobs on its fleet, not core.RunContext:" >&2
    echo "$service_runs" >&2
    exit 1
fi
echo "calls: internal/server names no core.RunContext"

# And one kernel table: a DP job's inputs are server.Registry's, the table
# the job service, the CLI tools and the simulator all build through, so
# one (kernel, n, seed) is one matrix in every tool. No other non-test code
# under internal/ or cmd/ generates inputs (internal/bench, the emulated
# figures' harness, keeps its own until it is deleted).
generators=$(grep -rnE --include='*.go' '(^|[^A-Za-z0-9_])(RandomDNA|RandomRNA|RandomSeq|MutateSeq)\(' internal cmd |
    grep -v '_test\.go:' | grep -vE '^internal/(dp|server|bench)/' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$generators" ]; then
    echo "calls: DP inputs are built through server.Registry, not generated here:" >&2
    echo "$generators" >&2
    exit 1
fi
echo "calls: no input generator outside internal/dp, internal/server and internal/bench"

# And one job description: server.JobSpec is the spec of every tool — its
# Digest scopes the cache entries of easyhps-run, easyhps-launch and
# easyhps-serve alike — so no non-test code names the CLIs' old spec type or
# its digest tag. A second job description must not come back unnoticed.
specs=$(grep -rnE --include='*.go' '(^|[^A-Za-z0-9_])core\.Spec([^A-Za-z0-9_]|$)|easyhps-spec:' . |
    grep -v '_test\.go:' || true)
if [ -n "$specs" ]; then
    echo "calls: a job is described by server.JobSpec, not a second spec:" >&2
    echo "$specs" >&2
    exit 1
fi
echo "calls: no non-test code names core.Spec or an easyhps-spec: tag"

# And one multi-process cluster: every worker process is a fleet member
# (internal/fleet), whose master recovers a lost member by timeout, so no
# non-test code names the deleted fixed-rank TCP master, its worker loop or
# the rank handshake's digest. A second multi-process master must not
# return unnoticed.
masters=$(grep -rnE --include='*.go' 'RunMasterContext|RankDigest|ListenMasterOpts|DialWorkerOpts|func RunSlave' . |
    grep -v '_test\.go:' || true)
if [ -n "$masters" ]; then
    echo "calls: a worker process joins a fleet, not a fixed-rank TCP master:" >&2
    echo "$masters" >&2
    exit 1
fi
echo "calls: no non-test code names a fixed-rank TCP master or its rank digest"

# And one in-process deployment: RunContext's members are in-process members
# of a registry-backed driver (core.Local, core.Worker), as the job
# service's are, so no non-test code names the deleted fixed-rank master,
# its rank link or worker loop; core, fleet and server reach their members
# through core.Link, never a channel network or comm.Transport; and the
# driver has one member source, with no branch for a missing registry.
ranks=$( (grep -rnE --include='*.go' '(^|[^A-Za-z0-9_])(runMaster|runSlave|rankLink|ServeRank)([^A-Za-z0-9_]|$)' . |
    grep -v '_test\.go:'
    grep -nE 'ChanNetwork|comm\.Transport' $(ls internal/core/*.go internal/fleet/*.go internal/server/*.go | grep -v '_test\.go$') /dev/null
    grep -nE 'reg (==|!=) nil' internal/core/driver.go /dev/null) || true)
if [ -n "$ranks" ]; then
    echo "calls: RunContext runs in-process members under the driver's registry, not fixed ranks:" >&2
    echo "$ranks" >&2
    exit 1
fi
echo "calls: no fixed-rank master, rank link or channel network in core, fleet or server"

# And one in-process attach: a member in the master's process — RunContext's,
# the job service's, a simulated one — builds its runner from the driver's own
# Job (core.Job.Runner), which the driver hands over with the spec frame, so
# no non-test code in internal/server or internal/sim builds a runner from a
# job table of its own, and RunContext passes its members no Attach closure.
# A second attach path must not arrive unnoticed.
attaches=$( (grep -nF 'NewTaskRunner(' $(ls internal/server/*.go internal/sim/*.go | grep -v '_test\.go$') /dev/null |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'
    grep -nE 'Attach:' internal/core/run.go /dev/null) || true)
if [ -n "$attaches" ]; then
    echo "calls: an in-process member attaches through core.Job.Runner, not a runner of its own:" >&2
    echo "$attaches" >&2
    exit 1
fi
echo "calls: no runner built in internal/server or internal/sim, no Attach closure in RunContext"

# And the simulator runs the shipped driver: it steps core.Driver (Start,
# Deliver, Down, Tick, End) from its event loop, so no non-test code
# in internal/sim builds a pool or draws, leases, encodes or commits a task
# itself. A second master under the simulator must not arrive unnoticed.
sim_calls=$(grep -nE 'engine\.NewPool|\.Draw\(|\.Lease\(|TaskPayload\(|\.Complete\(' \
    $(ls internal/sim/*.go | grep -v '_test\.go$') |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$sim_calls" ]; then
    echo "calls: internal/sim must drive core.Driver, not the pool or the job engine:" >&2
    echo "$sim_calls" >&2
    exit 1
fi
echo "calls: internal/sim names no pool draw, lease, payload or commit"

# And the runtime emulates nothing: the paper's figures replay on the
# simulator (internal/bench over internal/sim), which charges a block's work
# and its frames in virtual time, so no non-test code in core, fleet, server
# or the public package names a work or wire emulation knob, and non-test
# core sleeps only where a FaultPlan stall of a task is injected. A runtime
# that sleeps to look like a cluster must not return unnoticed.
emulation=$( (grep -nE 'WorkDelayPerCell|WorkJitter|DefaultClusterLatency' \
        $(ls internal/core/*.go internal/fleet/*.go internal/server/*.go | grep -v '_test\.go$') easyhps.go /dev/null
    grep -nF 'time.Sleep(' $(ls internal/core/*.go | grep -v '_test\.go$') /dev/null |
        grep -vE ':[[:space:]]*time\.Sleep\([a-z]+\.faults\.stallTask\([a-z]+\)\)$') || true)
if [ -n "$emulation" ]; then
    echo "calls: the runtime must not emulate work or wire cost (the figures replay on internal/sim):" >&2
    echo "$emulation" >&2
    exit 1
fi
echo "calls: no emulation knob in core, fleet, server or easyhps.go; core sleeps only for the FaultPlan task stall"

# And one job shape: core.Driver.NewJob alone decides a job's partition, draw
# order and wire — a job ships against its members' known-sets exactly when
# it is cached or drawn by affinity — so no non-test Go names the deleted
# delta-shipping or BCW column-run knobs, and no non-test code outside
# internal/core builds a master draw order of its own. A second place that
# shapes a job must not arrive unnoticed.
shapes=$( (grep -rnE --include='*.go' 'DeltaShipping|BCWBlockCols' . | grep -v '_test\.go:'
    grep -rnE --include='*.go' 'sched\.New(BlockCyclic|Affinity)\(' . | grep -v '_test\.go:' |
        grep -v '^\./internal/core/') || true)
if [ -n "$shapes" ]; then
    echo "calls: a job's shape is core.Driver.NewJob's to decide:" >&2
    echo "$shapes" >&2
    exit 1
fi
echo "calls: no delta-shipping or BCW column-run knob, no draw order built outside internal/core"

# And a keyed result is hashed once, on the master: engine.Job.commit
# derives every result's content key, and a worker takes its own outputs'
# keys from the master's references, hashing only to check a name it
# cannot take on trust (TaskRunner.resolve: another job's block, or one it
# computed twice). So no other non-test Go outside internal/cas and the
# benchmark calls cas.PayloadKey. A second hash of a result must not arrive
# unnoticed.
hashes=$(grep -rnE --include='*.go' 'cas\.PayloadKey\(' . | grep -v '_test\.go:' |
    grep -vE '^\./(internal/cas|benchmark)/' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
    while IFS=: read -r file line _; do
        fn=$(head -n "$line" "$file" | grep -E '^func ' | tail -1 | sed -E 's/^func (\([^)]*\) )?([A-Za-z0-9_]+).*/\2/')
        case "$file:$fn" in
        ./internal/engine/engine.go:commit | ./internal/core/taskrunner.go:resolve) ;;
        *) echo "$file:$line (in $fn)" ;;
        esac
    done)
if [ -n "$hashes" ]; then
    echo "calls: a result is hashed in engine.Job.commit, and a worker hashes only in TaskRunner.resolve:" >&2
    echo "$hashes" >&2
    exit 1
fi
echo "calls: cas.PayloadKey only in engine.Job.commit and TaskRunner.resolve outside internal/cas and benchmark/"

# And the result store has one eviction rule: a whole job's result is an
# entry of the one byte-budgeted LRU under its cas.JobKey, as a block is
# under its cas.BlockKey, so no non-test Go names the deleted job tier (its
# put, get, TTL or eviction count), and no non-test code in internal/cas
# reads the clock or takes one. A second retention rule must not arrive
# unnoticed.
tiers=$( (grep -rnE --include='*.go' '(^|[^A-Za-z0-9_])(PutJob|GetJob|JobTTL|JobEvictions)([^A-Za-z0-9_]|$)' . |
    grep -v '_test\.go:'
    grep -nE 'time\.Now|Clock' $(ls internal/cas/*.go | grep -v '_test\.go$') /dev/null) || true)
if [ -n "$tiers" ]; then
    echo "calls: the result store keeps every entry by its one LRU budget, with no job tier and no clock:" >&2
    echo "$tiers" >&2
    exit 1
fi
echo "calls: no job tier named, no clock in internal/cas"

# And a pattern states its cell order once: Pattern.RowOrder is the one
# order method, which the thread level and the simulator's cost model call
# directly, and dag.Validate the one check of a pattern. So no non-test Go
# names the deleted per-cell order, its expansion, the cell-level deriver
# or the four separate checks, or declares or calls a free dag.RowOrder. A
# second order or validator must not arrive unnoticed.
orders=$(grep -rnE --include='*.go' 'CellOrder|cellsOf|FromCellDeps|DeriveValidate|Validate(Acyclic|Topology|DataRegion)|dag\.RowOrder\(|^func RowOrder\(' . |
    grep -v '_test\.go:' || true)
if [ -n "$orders" ]; then
    echo "calls: a pattern's cell order is its RowOrder, and dag.Validate its one check:" >&2
    echo "$orders" >&2
    exit 1
fi
echo "calls: no CellOrder, cell-level deriver, separate pattern check or free dag.RowOrder"

# And a block has one kind of codec, a fixed-width one: BinaryCodec for the
# numbers, a custom codec for a struct cell (README's five-byte example).
# The gob codec, the affine-gap and optimal-BST kernels that only tests ran
# went with the rule that no library function stands without a shipped
# caller (TestEveryLibraryFunctionShips); none of them may come back. Nor
# may the two patterns beyond the design's six, PrevRow and Banded, or the
# Viterbi and banded-edit kernels that only exercised them. The same gate
# keeps encoding/gob off the wire: hello, welcome and every message kind
# are frames of internal/comm/wire.go (comm's tests may import gob, to show
# that a protocol-v4 peer is refused).
pruned=$(grep -rnE --include='*.go' '"encoding/gob"|GobCodec|NewGotoh|NewOptimalBST|PrevRow|Banded|NewViterbi|NewBandedEdit' . |
    grep -v '_test\.go:' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$pruned" ]; then
    echo "calls: encoding/gob, GobCodec, NewGotoh, NewOptimalBST, PrevRow, Banded, NewViterbi and NewBandedEdit are gone from non-test Go:" >&2
    echo "$pruned" >&2
    exit 1
fi
echo "calls: no encoding/gob, GobCodec, NewGotoh, NewOptimalBST, PrevRow, Banded, NewViterbi or NewBandedEdit in non-test Go"

# Smoke the wire-codec fuzzer: ten seconds of random frames must neither
# crash the decoder nor break the encode/decode round trip.
go test -run '^$' -fuzz '^FuzzWireCodec$' -fuzztime 10s ./internal/comm/
# And the two handshake frames, the first bytes an unauthenticated peer
# sends: refused or decoded without a panic, and a decoded hello or welcome
# re-encodes to a frame that decodes to the same value.
go test -run '^$' -fuzz '^FuzzHandshake$' -fuzztime 10s ./internal/comm/
# And the block payloads those frames, checkpoint records and cache files
# carry, plain and keyed: decode or refuse without a panic, and re-encode
# to the same bytes.
go test -run '^$' -fuzz '^FuzzDecodeBlocks$' -fuzztime 10s ./internal/matrix/
# And the checkpoint log, through the one restore path every master has:
# refused or accepted without a panic, and an accepted prefix leaves every
# block under its own vertex and a frontier whose predecessors committed.
# The seeds are whole logs of a few kilobytes; left at its default the
# fuzzer would spend the ten seconds minimizing the first interesting one.
go test -run '^$' -fuzz '^FuzzReplay$' -fuzztime 10s -fuzzminimizetime 1s ./internal/engine/
# And the job spec JSON at POST /v1/jobs, through the handler and a manager
# with a small MaxCells: refused or accepted without a panic, sized before
# its inputs are generated, and an accepted job answers what its kernel's
# sequential reference does. Each input runs a job, so minimizing an
# interesting one at the default minimize time would eat the ten seconds.
go test -run '^$' -fuzz '^FuzzSubmit$' -fuzztime 10s -fuzzminimizetime 1s ./internal/server/
# And the cas directory a store reloads on open: every entry file served or
# refused without a panic, and whatever is served hashes to the key the
# store keeps for it (the file's header).
go test -run '^$' -fuzz '^FuzzStoreDir$' -fuzztime 10s -fuzzminimizetime 1s ./internal/cas/

if [ "$soak" = 1 ]; then
    go test -race -count=1 -tags soak -run TestSoakBatchedFaults -timeout 600s ./internal/fleet/
fi

if [ "$sim" = 1 ]; then
    # Replay every scenario at extra fixed seeds: determinism-per-seed
    # and bit-identical DP results must hold at any seed, not just the
    # tuned one. This includes the self-tuning (auto) scenarios — the
    # controller's decisions are pure functions of the schedule, so they
    # must replay deterministically too. The timeout is the stage's
    # wall-time budget — virtual time makes even the 1000-worker
    # scenarios run in seconds.
    EASYHPS_SIM_SEEDS="1009,2003" \
        go test -race -count=1 -run TestScenariosReseeded -timeout 120s ./internal/sim/
fi

if [ "$bench" = 1 ]; then
    # Floors, not comparisons. swgg-inproc read 0.25 before the kernels
    # scanned block runs and reads 1.1-1.2 since, so 0.6 is far from both
    # and from the host's noise; edit-inproc read 0.11 while every block
    # went through encoding/binary.Write, 0.15-0.18 with the byte-slice
    # codec and a per-cell kernel loop, 0.25-0.36 with row segments while
    # every task still carried three whole blocks, 0.56-0.67 once a task
    # carried the row, the column and the corner its pattern declares but
    # a result block still cost three allocations (the worker's block, its
    # encoding, the master's decoded copy), and reads 0.9 or more since the
    # worker computes into the payload it ships and the master reads it in
    # place, so 0.75 fails if that is lost (and with it anything below).
    # Comparing two commits is the pairing recipe in benchmark/README.md,
    # not this stage.
    bench_floor() {
        line=$(sh benchmark/run.sh --workload "$1" --seed 1 --seconds 15 --trace 0 | tail -1)
        echo "$line"
        python3 - "$line" "$1" "$2" <<'EOF'
import json, sys
r, name, floor = json.loads(sys.argv[1]), sys.argv[2], float(sys.argv[3])
speedup = r["metrics"]["speedup_vs_seq"]["value"]
if not r["correct"] or r["failed"] > 0 or speedup < floor:
    sys.exit("bench: %s correct=%s failed=%d speedup_vs_seq=%.3f (floor %s)"
             % (name, r["correct"], r["failed"], speedup, floor))
print("bench: %s speedup_vs_seq %.3f (>= %s)" % (name, speedup, floor))
EOF
    }
    bench_floor swgg-inproc 0.6
    bench_floor edit-inproc 0.75
fi
