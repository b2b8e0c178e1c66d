package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"activepages/internal/experiments"
	"activepages/internal/lru"
	"activepages/internal/obs"
	"activepages/internal/radram"
	"activepages/internal/run"
)

// State is a run's position in its lifecycle. Runs move strictly forward:
// queued -> running -> done|failed (a queued run can also fail directly,
// when the daemon shuts down before a worker picks it up).
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Request is the body of POST /api/v1/runs: which experiment to run and
// with what knobs. The zero value of every field selects the apbench
// default.
type Request struct {
	// Experiment names what to run: a composite experiment, "all", or a
	// single benchmark name — the same vocabulary as apbench -experiment.
	Experiment string `json:"experiment"`
	// Quick selects the short problem-size axis (apbench -quick).
	Quick bool `json:"quick,omitempty"`
	// PageBytes overrides the superpage size (apbench -pagebytes); 0 keeps
	// the scaled default.
	PageBytes uint64 `json:"page_bytes,omitempty"`
	// Regions prints the region classification after fig3 (apbench -regions).
	Regions bool `json:"regions,omitempty"`
	// L2 makes fig5 sweep the L2 instead of the L1D (apbench -l2).
	L2 bool `json:"l2,omitempty"`
	// Backend selects the Active-Page compute backend (apbench -backend):
	// "radram" (the default when empty), "simdram", or "all".
	Backend string `json:"backend,omitempty"`
}

// Run is one submitted experiment and everything it produced. The struct
// is guarded by its server's registry lock; handlers only ever see copies
// taken under that lock (see view), so a run in flight never races a read.
// The worker executing a run reads its Request, Submitted and trace
// without the lock: they are set before the run is published and change
// only when a terminal run is evicted.
type Run struct {
	ID      string  `json:"id"`
	Request Request `json:"request"`
	State   State   `json:"state"`
	// RequestID is the fleet-wide correlation id of the submission that
	// created this run (the X-AP-Request-Id header), joining this run to
	// the router's and shard's access-log lines for the same interaction.
	RequestID string `json:"request_id,omitempty"`
	// Error holds the failure cause when State is failed.
	Error string `json:"error,omitempty"`
	// Submitted/Started/Finished are wall-clock lifecycle stamps.
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// ElapsedMS is the wall-clock execution time in milliseconds, set when
	// the run finishes.
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
	// Progress is a live snapshot of the run's sweep execution — points
	// done over scheduled, checkpoint outcomes, per-point wall costs —
	// present from the moment a worker picks the run up, including on
	// completed runs (where it is the final tally).
	Progress *run.ProgressSnapshot `json:"progress,omitempty"`
	// EtaMS estimates the remaining wall milliseconds of a running run
	// from the scheduled points and observed per-point cost; 0 when the
	// run is not running or nothing has completed yet.
	EtaMS int64 `json:"eta_ms,omitempty"`
	// Evicted marks a tombstone: the run hit the registry's retention cap
	// and its artifacts (output, metrics, trace) were dropped, leaving the
	// lifecycle record and the final progress tally.
	Evicted bool `json:"evicted,omitempty"`
	// Cached marks a run completed from the content-addressed result
	// cache: its artifacts are a previous identical run's, byte for byte,
	// and no simulation executed.
	Cached bool `json:"cached,omitempty"`

	// result holds the run's artifacts once it is done: the rendered
	// tables (exactly what apbench would have printed to stdout), the
	// merged metrics snapshot and the per-benchmark snapshots for the
	// attribution report. They are immutable, so handlers serve them
	// without copying. Eviction nils the pointer under the registry lock;
	// handlers re-check through the lock (lookup copies), never through a
	// stale view.
	result *cachedRun

	// trace is the run's wall-clock lifecycle trace and structured event
	// log, created at submission (epoch = submission time) and emitted
	// into by the executing worker; it is concurrency-safe, so handlers
	// export it while the run is in flight. progress is the live tracker
	// the worker's runner reports into while the run is running; a cached
	// run never executes and has none. jobs is the run's simulation
	// worker-pool width, for the ETA estimate. spec is the run's content
	// address (SpecKey), keying the result store and the registry's leader
	// index.
	trace    *obs.WallTracer
	progress *run.Progress
	jobs     int
	spec     string
}

// view returns a shallow copy of the run's JSON-visible fields, safe to
// marshal after the registry lock is released. The artifacts are
// intentionally shared: they are written once, when the run is marked
// done, and never mutated after. A running run's view reads its live
// tracker; a terminal run carries the tally registry.finish froze.
func (r *Run) view() Run {
	v := *r
	if r.State == StateRunning {
		snap := r.progress.Snapshot()
		v.Progress = &snap
		v.EtaMS = snap.ETA(r.jobs).Milliseconds()
	}
	return v
}

// evict reduces a terminal run to its tombstone: the lifecycle record and
// the final progress tally. The artifacts, the trace and the spec (finish
// has dropped its leadership) go.
func (r *Run) evict() {
	r.Evicted = true
	r.result, r.trace, r.spec = nil, nil, ""
}

// tombstonesPerRetained bounds the tombstones a registry keeps, as a
// multiple of its retention cap: 4,096 at the default cap of 256.
const tombstonesPerRetained = 16

// registry is the server's run table: id allocation, the spec → leader
// index, lookup, listing, and retention. Completed and failed runs are
// capped at retain entries: each terminal transition evicts the oldest
// terminal runs beyond the cap to tombstones (see Run.evict), and forgets
// the oldest tombstones beyond tombstonesPerRetained × retain, whose ids
// then answer 404 like unknown ids. The registry thus holds at most
// 17 × retain terminal runs, plus the runs queued or running, so its
// memory stays bounded under sustained load.
type registry struct {
	mu     sync.Mutex
	next   int
	runs   map[string]*Run
	retain int
	// instance, when set, prefixes every run id ("b0-r000001"), making ids
	// globally unique across a sharded fleet so a router can route a GET
	// by id to the shard that owns it.
	instance string
	// leaders maps a spec key to the id of its leader run from the moment
	// the leader is queued until it reaches a terminal state; duplicate
	// submissions in that window attach to the leader. results is the
	// server's result store: a done run's artifacts enter it in the same
	// transaction that drops the run's leadership, so a spec is always
	// either led, stored, or cold, never ambiguously two of those.
	leaders map[string]string
	results *lru.Cache[string, *cachedRun]
	// closed is set, with the queue closed, when the server shuts down.
	closed bool
	// terminal lists terminal (done/failed), not-yet-evicted run ids in
	// completion order — the eviction queue. tombstones lists evicted run
	// ids in the same order — the queue of runs to forget.
	terminal   []string
	tombstones []string
}

func newRegistry(retain int, instance string, results *lru.Cache[string, *cachedRun]) *registry {
	return &registry{runs: make(map[string]*Run), retain: retain, instance: instance,
		leaders: make(map[string]string), results: results}
}

// insert gives a new run the next id, names its trace's process after it,
// and publishes it. The caller holds the lock.
func (g *registry) insert(r *Run) {
	g.next++
	r.ID = fmt.Sprintf("r%06d", g.next)
	if g.instance != "" {
		r.ID = g.instance + "-" + r.ID
	}
	r.trace.SetProcess(1, r.ID+" (wall clock)")
	g.runs[r.ID] = r
}

// admit is a submission's one registry transaction: it decides whether r,
// a submitted record not yet published, is a dedup (its spec has a leader,
// whose view it returns), a hit (its spec's result is stored, which it
// returns; the caller finishes r with it), a miss (r becomes the spec's
// leader, is published and queued, and its view is returned as queued:
// no worker has seen it yet), or shed (the queue is full: "", or closed:
// "closed"; r leaves no trace). The disposition is the CacheResultHeader
// value otherwise. Both lookups and the enqueue are non-blocking, so the
// critical section is microseconds, and a spec is never queued twice.
func (g *registry) admit(r *Run, queue chan<- *Run) (Run, *cachedRun, string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return Run{}, nil, "closed"
	}
	if id, ok := g.leaders[r.spec]; ok {
		return g.runs[id].view(), nil, "dedup"
	}
	if res, ok := g.results.Get(r.spec); ok {
		return Run{}, res, "hit"
	}
	select {
	case queue <- r:
	default:
		return Run{}, nil, ""
	}
	// The worker that receives r waits for this lock before it reads r.
	g.insert(r)
	g.leaders[r.spec] = r.ID
	return r.view(), nil, "miss"
}

// close closes admission and the queue in one transaction, so no admit
// sends on the closed queue.
func (g *registry) close(queue chan *Run) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
	close(queue)
}

// isClosed reports whether admission has closed.
func (g *registry) isClosed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.closed
}

// start marks a queued run running, executing under prog from now on.
func (g *registry) start(r *Run, now time.Time, prog *run.Progress) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r.State, r.Started, r.progress = StateRunning, &now, prog
}

// finish makes r terminal in one transaction: state st, finished at at,
// after elapsed of execution, with the artifacts res when done, and the
// final progress tally of a started run frozen in place of its tracker.
// An executed run's artifacts enter the result store before the spec's
// leadership is dropped, so there is no window where a duplicate
// submission neither attaches to the run nor finds its result stored. A
// record not yet published — a cache hit, whose artifacts came from the
// store — is published here with a fresh id. Then the retention cap
// applies: finish returns r's view and how many runs it evicted.
func (g *registry) finish(r *Run, st State, errMsg string, at time.Time, elapsed time.Duration, res *cachedRun) (Run, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if r.ID == "" {
		g.insert(r)
	}
	r.State, r.Error, r.Finished, r.ElapsedMS = st, errMsg, &at, elapsed.Milliseconds()
	if r.Started != nil {
		snap := r.progress.Snapshot()
		r.Progress, r.progress = &snap, nil
	}
	r.result = res
	if res != nil && !r.Cached {
		g.results.Add(r.spec, res)
	}
	if g.leaders[r.spec] == r.ID {
		delete(g.leaders, r.spec)
	}
	g.terminal = append(g.terminal, r.ID)
	evicted := 0
	for len(g.terminal) > g.retain {
		victim := g.terminal[0]
		g.terminal = g.terminal[1:]
		g.runs[victim].evict()
		g.tombstones = append(g.tombstones, victim)
		evicted++
	}
	for len(g.tombstones) > tombstonesPerRetained*g.retain {
		delete(g.runs, g.tombstones[0])
		g.tombstones = g.tombstones[1:]
	}
	return r.view(), evicted
}

// get returns a consistent copy of one run.
func (g *registry) get(id string) (Run, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.runs[id]
	if !ok {
		return Run{}, false
	}
	return r.view(), true
}

// list returns consistent copies of every run, sorted by id (submission
// order, since ids are sequential and zero-padded), with the per-state
// counts.
func (g *registry) list() Listing {
	g.mu.Lock()
	defer g.mu.Unlock()
	l := Listing{Runs: make([]Run, 0, len(g.runs)), Counts: make(map[State]int, 4)}
	for _, r := range g.runs {
		l.Runs = append(l.Runs, r.view())
		l.Counts[r.State]++
	}
	sort.Slice(l.Runs, func(i, j int) bool { return l.Runs[i].ID < l.Runs[j].ID })
	return l
}

// DecodeRequest decodes one submission body — a JSON object naming only
// Request's fields — and validates it. It is the one gate every daemon
// applies before SpecKey: a shard and the fleet router accept and refuse
// exactly the same bodies. Callers bound the body's size.
func DecodeRequest(body io.Reader) (Request, error) {
	var req Request
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("bad request body: %v", err)
	}
	if err := req.validate(); err != nil {
		return Request{}, err
	}
	return req, nil
}

// validate rejects a request the dispatcher would refuse, so a bad
// experiment, backend or page size fails the POST with 400 instead of
// occupying a worker.
func (req Request) validate() error {
	if req.Experiment == "" {
		return fmt.Errorf("missing experiment name")
	}
	if err := experiments.Check(req.Experiment, req.Backend); err != nil {
		return err
	}
	if err := req.config().Validate(); err != nil {
		return fmt.Errorf("page_bytes %d: %w", req.PageBytes, err)
	}
	return nil
}

// config is the machine configuration the request runs: the scaled page
// size unless page_bytes overrides it.
func (req Request) config() radram.Config {
	if req.PageBytes != 0 {
		return radram.DefaultConfig().WithPageBytes(req.PageBytes)
	}
	return radram.DefaultConfig().WithPageBytes(experiments.ScaledPageBytes)
}

// dispatch runs the request as one run, as one apbench invocation does:
// the experiment's rendered tables go to w, exactly what apbench prints
// for the same flags, and the returned collector holds the run's metrics.
// The run simulates on jobs workers with its own checkpoint cache, so its
// points branch from each other's machine states and never from another
// run's; the cache is dropped when the run ends. So every artifact of a
// run depends on its spec alone, and the result store is the only reuse
// across runs. ctx cancels the run; prog, when set, tracks it.
func (req Request) dispatch(ctx context.Context, w io.Writer, jobs int, prog *run.Progress) (*run.Collector, error) {
	r := (&run.Runner{Jobs: jobs, Context: ctx, Checkpoints: run.NewCheckpointCache(0),
		Progress: prog}).WithMetrics()
	points := experiments.DefaultPagePoints()
	if req.Quick {
		points = experiments.QuickPagePoints()
	}
	opt := experiments.Options{Regions: req.Regions, L2: req.L2, Backend: req.Backend}
	return r.Metrics, experiments.Dispatch(w, r, req.Experiment, req.config(), points, opt)
}

// String renders the request compactly for logs.
func (req Request) String() string {
	var b strings.Builder
	b.WriteString(req.Experiment)
	if req.Quick {
		b.WriteString(" quick")
	}
	if req.PageBytes != 0 {
		fmt.Fprintf(&b, " pagebytes=%d", req.PageBytes)
	}
	if req.Backend != "" {
		fmt.Fprintf(&b, " backend=%s", req.Backend)
	}
	return b.String()
}
