package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/service"
)

// serveConns is the number of client connections, each driven by one
// goroutine in a closed loop.
const serveConns = 2

// newServePlanner builds the planner cmd/dpserved builds from its
// default flags, except the plan cache, which keeps the library default
// of DefaultPlanCacheSize entries (see README.md).
func newServePlanner() *repro.Planner {
	model, err := repro.ParseCostModel("cout")
	if err != nil {
		panic(err) // "cout" is a built-in model name
	}
	return repro.NewPlanner(
		repro.WithAlgorithm(repro.SolverAuto),
		repro.WithCostModel(model),
		repro.WithBudget(repro.Budget{MaxCsgCmpPairs: 10_000_000}),
		repro.WithParallelism(0),
	)
}

// serviceConfig mirrors cmd/dpserved's default flags. Its per-request
// info log is formatted as there but written to io.Discard.
func serviceConfig(p service.Planner, snapshot string) service.Config {
	return service.Config{
		Planner:          p,
		Workers:          runtime.GOMAXPROCS(0),
		QueueDepth:       64,
		DefaultTimeout:   10 * time.Second,
		MaxTimeout:       60 * time.Second,
		Logger:           slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
		HistoryInterval:  5 * time.Minute,
		SnapshotPath:     snapshot,
		SnapshotInterval: 5 * time.Minute,
		RingSize:         32,
	}
}

// server is one running service.Server on a loopback listener.
type server struct {
	svc     *service.Server
	planner *repro.Planner
	http    *http.Server
	url     string
	served  chan error
}

// startServer constructs a server exactly as setup_s times it: planner,
// service.New (which restores the snapshot, if any) and the listener.
func startServer(snapshot string, traced *tracer) (*server, error) {
	s := &server{planner: newServePlanner(), served: make(chan error, 1)}
	var backend service.Planner = s.planner
	if traced != nil {
		backend = &tracingPlanner{Planner: s.planner, t: traced}
	}
	s.svc = service.New(serviceConfig(backend, snapshot))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	h := s.svc.Handler()
	if traced != nil {
		h = traced.wrap(h)
	}
	s.http = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	s.url = "http://" + ln.Addr().String() + "/plan"
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop drains the service (which saves its snapshot), closes the
// listener and waits for the serving goroutine to end.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.svc.Shutdown(ctx)
	if herr := s.http.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// client drives one connection's closed loop. Untimed ops are
// recorded in its tally; traced ops also in traced.
type client struct {
	http   *http.Client
	url    string
	set    *inputSet
	tally  *tally
	traced []tracedOp
	buf    bytes.Buffer
}

// tracedOp is one request of a traced phase.
type tracedOp struct {
	seq    uint64
	doc    int
	lat    time.Duration
	status int
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// do sends one request for document d, checks the response and
// records the op. seq is the tracer's sequence number, 0 when untraced.
func (c *client) do(d int, seq uint64) {
	lat, status, cost, alg, err := c.send(d, seq)
	c.tally.record(c.set.Inputs, d, lat, cost, alg, err)
	if seq != 0 {
		c.traced = append(c.traced, tracedOp{seq: seq, doc: d, lat: lat, status: status})
	}
}

func (c *client) send(d int, seq uint64) (lat time.Duration, status int, cost float64, alg repro.Algorithm, err error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(c.set.Inputs[d].Request))
	if err != nil {
		return 0, 0, 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if seq != 0 {
		req.Header.Set(opHeader, strconv.FormatUint(seq, 10))
	}
	c.buf.Reset()
	start := time.Now()
	resp, err := c.http.Do(req)
	if err == nil {
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	lat = time.Since(start)
	if err != nil {
		return lat, 0, 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, resp.StatusCode, 0, 0, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	cost, alg, err = c.check(d, c.buf.Bytes())
	return lat, resp.StatusCode, cost, alg, err
}

// check verifies a 200 response body for document d. A plan whose
// bytes hash like the one already verified for d is not checked again.
func (c *client) check(d int, body []byte) (float64, repro.Algorithm, error) {
	var wire struct {
		Plan      json.RawMessage `json:"plan"`
		Cost      float64         `json:"cost"`
		Algorithm string          `json:"algorithm"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		return 0, 0, fmt.Errorf("decoding response: %w", err)
	}
	alg, err := repro.ParseAlgorithm(wire.Algorithm)
	if err != nil {
		return 0, 0, err
	}
	h := fnv.New64a()
	h.Write(wire.Plan)
	sum := h.Sum64()
	ds := &c.tally.docs[d]
	if ds.ops > 0 && ds.hash == sum {
		return wire.Cost, alg, nil
	}
	var root service.PlanNodeJSON
	if err := json.Unmarshal(wire.Plan, &root); err != nil {
		return 0, 0, fmt.Errorf("decoding plan: %w", err)
	}
	if err := checkPlan(c.set.Inputs[d].Doc, fromWire(&root), wire.Cost); err != nil {
		return 0, 0, err
	}
	ds.hash = sum
	return wire.Cost, alg, nil
}

// keys hands out the request sequence to both connections.
type keys struct {
	seq []int32
	pos atomic.Uint64
}

func (k *keys) next() int {
	i := k.pos.Add(1) - 1
	return int(k.seq[i%uint64(len(k.seq))])
}

// maxServeRate bounds the requests per second and connection a run
// records; a connection that reaches it ends its timed phase early.
const maxServeRate = 40_000

// runServe runs serve-hot or serve-churn.
func runServe(ctx context.Context, name string, set *inputSet, o runOptions) (*outcome, error) {
	dir, err := os.MkdirTemp(o.scratch, name+"-")
	if err != nil {
		return nil, fmt.Errorf("creating scratch directory: %w", err)
	}
	defer os.RemoveAll(dir)

	hot := name == "serve-hot"
	var libCost []float64
	snapshot := ""
	if hot {
		// Untimed preparation: plan the hot set once and save the
		// cache, which every server of this run restores from a fresh
		// copy (Shutdown saves back over the file it restored).
		snapshot = filepath.Join(dir, "hot.json")
		libCost, err = prepareSnapshot(ctx, set, snapshot)
		if err != nil {
			return nil, err
		}
	}
	ks := &keys{seq: set.Keys}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	clients := make([]*client, serveConns)
	for c := range clients {
		clients[c] = &client{http: hc, set: set, tally: newTally(len(set.Inputs), int(o.seconds.Seconds()*maxServeRate)+1)}
	}
	heap := newHeapSampler(o.seconds)
	base := baselineHeap()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	reps := 31
	if hot {
		reps = 21
	}
	var srv *server
	setups := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		path := ""
		if hot {
			path = filepath.Join(dir, fmt.Sprintf("run-%d.json", r))
			if err := copyFile(snapshot, path); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		s, err := startServer(path, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if r < reps-1 {
			if err := s.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up server: %w", err)
			}
			continue
		}
		srv = s
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()
	for _, c := range clients {
		c.url = srv.url
	}

	out := newOutcome()
	out.metrics["setup_s"] = metric{medianFloat(setups), "s"}

	untimed := o.seconds
	if o.trace {
		untimed = o.seconds / 3
	}
	heap.start()
	rt0 := readRuntime()
	closedLoop(clients, ks, untimed, nil)
	rt1 := readRuntime()
	peak := heap.finish()
	segs := loopSegments(clients, untimed)
	t := newTally(len(set.Inputs), 0)
	for _, c := range clients {
		t.merge(set.Inputs, c.tally)
	}
	ops := len(t.lats)

	var m1, m2 repro.PlannerMetrics
	var tracedSegs [][]time.Duration
	if o.trace {
		for _, c := range clients {
			c.tally = newTally(len(set.Inputs), cap(c.tally.lats))
		}
		m1 = srv.planner.Metrics()
		tr.on.Store(true)
		closedLoop(clients, ks, o.seconds-untimed, tr)
		tr.on.Store(false)
		m2 = srv.planner.Metrics()
		tracedSegs = loopSegments(clients, o.seconds-untimed)
		for _, c := range clients {
			c.tally.lats = c.tally.lats[:0]
			t.merge(set.Inputs, c.tally)
		}
	}
	stopped = true
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stopping server: %w", err)
	}

	// Untimed references for every document requested: the library
	// plan of the same document and, up to 10 relations, the oracle.
	use := t.used()
	if !hot {
		libCost, err = libraryCosts(ctx, set.Inputs, use)
		if err != nil {
			return nil, err
		}
	}
	refs, err := references(ctx, set.Inputs, use)
	if err != nil {
		return nil, err
	}
	ratio := t.settle(set.Inputs, refs, libCost)
	out.attempted, out.failed, out.failures = ops, t.failed, t.failures

	if !o.trace {
		out.timings(segs, serveConns)
		out.metrics["ok_ratio"] = metric{1 - float64(out.failed)/float64(max(out.attempted, 1)), "ratio"}
		out.metrics["plan_cost_ratio"] = metric{ratio, "ratio"}
		out.metrics["peak_heap_mb"] = metric{peak - base, "MiB"}
		return out, nil
	}

	// The public layer functions are timed on each traced op's input
	// only now, so that they do not compete with the other connection's
	// requests for the CPUs.
	l := newLayers()
	tops := 0
	for _, c := range clients {
		for _, op := range c.traced {
			tr.attribute(op, l)
			l.addStandalone(timeStandalone(&set.Inputs[op.doc]), true)
			if op.status == http.StatusTooManyRequests || op.status >= 500 {
				l.rejected++
			}
		}
		tops += len(c.traced)
	}
	out.attempted += tops
	l.restores = tr.restores()
	l.cache(m1, m2, tops)
	m := l.metrics()
	for k, v := range runtimeMetrics(rt0, rt1, ops) {
		m[k] = v
	}
	m["trace.overhead"] = metric{typicalLatency(tracedSegs)/typicalLatency(segs) - 1, "ratio"}
	out.metrics = m
	return out, nil
}

// serveSegment is the length of one segment of a serve run.
const serveSegment = 250 * time.Millisecond

// loopSegments returns the complete segments of a closed loop that ran
// for d: segment k of the loop is segment k of every client. Ops that
// completed after the deadline form a last, partial segment, left out.
func loopSegments(clients []*client, d time.Duration) [][]time.Duration {
	var segs [][]time.Duration
	for k := 0; k < int(d/serveSegment); k++ {
		var lats []time.Duration
		for _, c := range clients {
			if k < len(c.tally.segs) {
				lats = append(lats, c.tally.segment(k)...)
			}
		}
		segs = append(segs, lats)
	}
	return segs
}

// closedLoop runs every client until d has passed, or its tally is
// full. Each client cuts its tally at every serveSegment boundary, so
// segment k of every client holds the ops that completed in the loop's
// k-th second.
func closedLoop(clients []*client, ks *keys, d time.Duration, tr *tracer) {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cut := start.Add(serveSegment)
			for time.Now().Before(deadline) && !c.tally.full() {
				var seq uint64
				if tr != nil {
					seq = tr.seq.Add(1)
				}
				c.do(ks.next(), seq)
				for now := time.Now(); !now.Before(cut); cut = cut.Add(serveSegment) {
					c.tally.cut()
				}
			}
		}()
	}
	wg.Wait()
}

// prepareSnapshot plans every document of the set with a fresh serving
// planner, saves its cache to path and returns each document's cost.
func prepareSnapshot(ctx context.Context, set *inputSet, path string) ([]float64, error) {
	p := newServePlanner()
	costs := make([]float64, len(set.Inputs))
	for i := range set.Inputs {
		res, err := p.PlanJSON(ctx, set.Inputs[i].Doc)
		if err != nil {
			return nil, fmt.Errorf("preparing snapshot: document %d: %w", i, err)
		}
		costs[i] = res.Cost()
	}
	if err := p.SaveCacheSnapshot(path); err != nil {
		return nil, fmt.Errorf("preparing snapshot: %w", err)
	}
	return costs, nil
}

// libraryCosts plans each document in use with a fresh serving planner.
func libraryCosts(ctx context.Context, ins []input, use []bool) ([]float64, error) {
	p := newServePlanner()
	costs := make([]float64, len(ins))
	for i := range ins {
		if !use[i] {
			continue
		}
		res, err := p.PlanJSON(ctx, ins[i].Doc)
		if err != nil {
			return nil, fmt.Errorf("library plan of document %d: %w", i, err)
		}
		costs[i] = res.Cost()
	}
	return costs, nil
}

func copyFile(from, to string) error {
	data, err := os.ReadFile(from)
	if err != nil {
		return fmt.Errorf("copying snapshot: %w", err)
	}
	if err := os.WriteFile(to, data, 0o600); err != nil {
		return fmt.Errorf("copying snapshot: %w", err)
	}
	return nil
}
