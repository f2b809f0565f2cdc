package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// The serve workload runs qsmd in process, exactly as cmd/qsmd assembles
// it (store, scheduler, TraceMiddleware over Handler), behind a loopback
// listener, and drives it with two closed-loop clients, because qsmd's
// callers each wait for their reply. One client submits single jobs, the
// other small batches; both learn of completion from the job or batch event
// stream, never by polling. Keys are (experiment, seed) pairs drawn
// Zipf-hot from a pool, so a round mixes cache hits at admission (HTTP and
// store only), misses (queue, runner, simulation and a store write), and
// duplicates that meet in the queue (coalescing) or in the store
// (single-flight). Each round starts a fresh service over an empty store
// directory; starting it is a set-up, as are the passes that start and
// stop a service before the rounds.
//
// The traffic is synthetic. Its key universe and skew are qsmload's
// defaults (-exp fig2 -runs 1 -quick -keys 20 -zipf 1.1). qsmload's four
// closed-loop workers become two clients: the single-job client carries
// three workers' share of the jobs and the batch client one. With the
// shares equal, the median job latency fell between single-job and batch
// admission times and its spread between runs was 20-30%; at three to one it
// lies among single-job cache hits.

const (
	serveSingles   = 360 // single-job submissions per round
	serveBatches   = 15  // batch submissions per round
	serveBatchSize = 8   // jobs per batch, well under the queue's capacity
	serveExp       = "fig2"
	serveKeys      = 20  // qsmload -keys
	serveZipf      = 1.1 // qsmload -zipf
	maxResumes     = 3   // reconnects allowed per event stream
	serveTimeout   = 60 * time.Second
	// minLatencies keeps an untraced run going past its seconds, for as long
	// again at most, until this many jobs completed, so that at least ten
	// latencies lie beyond p99.
	minLatencies = 1100
)

type poolKey struct {
	id   string
	seed int64
}

func (k poolKey) String() string { return fmt.Sprintf("%s/%d", k.id, k.seed) }

// options are qsmload's default job options: one run, quick sweep.
func (k poolKey) options() experiments.Options {
	return experiments.Options{Seed: k.seed, Runs: 1, Quick: true, Parallelism: 1}
}

// servePool lists the keys a seed's jobs are drawn from, hottest first.
// Sample sort's input comes from the seed, so every key has its own tables.
func servePool(seed int64) []poolKey {
	out := make([]poolKey, serveKeys)
	for i := range out {
		out[i] = poolKey{serveExp, seed*1000 + int64(i)}
	}
	return out
}

// Job classes.
const (
	classHit          = "hit"           // done at admission from the store
	classMiss         = "miss"          // simulated by its own attempt
	classCoalesced    = "coalesced"     // served by an identical queued job's simulation
	classSingleFlight = "single-flight" // ran an attempt the store answered: shared or landed while queued
	classRejected     = "rejected"      // refused at admission (429)
	classFailed       = "failed"        // failed, or lost on a stream that could not be resumed
)

// jobRec is one submitted job as the client saw it.
type jobRec struct {
	key       poolKey
	id        string
	class     string
	latency   time.Duration // submit to terminal event
	resultKey string
	tables    string // SHA-256 of the fetched result's tables
	err       string
}

// wireStatus is the part of the API's job status the clients read.
type wireStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced"`
	ResultKey string `json:"result_key"`
	Error     string `json:"error"`
}

func (s wireStatus) terminal() bool { return s.State == "done" || s.State == "failed" }

func (s wireStatus) class() string {
	switch {
	case s.State != "done":
		return classFailed
	case s.Coalesced:
		return classCoalesced
	case s.Cached:
		return classSingleFlight
	}
	return classMiss
}

// serveRound is what one round recorded.
type serveRound struct {
	setup  time.Duration
	sample sample
	jobs   []jobRec
	ttfe   []float64 // ms from opening an event stream to its first event
	spans  []span
	prof   []byte
}

// directDigest runs every pool key through experiments.Run directly, a path
// that shares no queue, store or coalescing code with the service; every
// job's tables must match.
func directDigest(pool []poolKey) (digest, error) {
	sums := make([]string, len(pool))
	errs := make([]error, len(pool))
	forEach(len(pool), func(i int) {
		res, err := experiments.Run(pool[i].id, pool[i].options())
		if err != nil {
			errs[i] = fmt.Errorf("direct run of %s: %w", pool[i], err)
			return
		}
		sums[i] = sha(res.String())
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	d := digest{}
	for i, k := range pool {
		d[k.String()] = entry{SHA256: sums[i]}
	}
	return d, nil
}

// runServe repeats serve rounds for the run's seconds, half untraced and
// half traced in a traced run, then checks every job and reports the
// metrics of the run's kind.
func runServe(c config) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	pool := servePool(c.seed)
	budget := time.Duration(c.seconds * float64(time.Second))
	if c.traced {
		budget /= 2
	}
	// Set-up passes start and stop a service with no traffic; with every
	// untraced round's own start they make setup_s a median of many.
	var setups []float64
	for pass := 0; pass < setupPasses; pass++ {
		q, d, err := startService(nil)
		if err == nil {
			err = q.stop()
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	var plain, traced []serveRound
	for phase, rounds := range []*[]serveRound{&plain, &traced} {
		if phase == 1 && !c.traced {
			break
		}
		deadline := time.Now().Add(budget)
		more := func() bool {
			if len(*rounds) == 0 || time.Now().Before(deadline) {
				return true
			}
			return !c.traced && completed(plain) < minLatencies && time.Now().Before(deadline.Add(budget))
		}
		for more() {
			r, err := serveOnce(pool, phase == 1)
			if err != nil {
				return nil, fmt.Errorf("round %d: %w", len(plain)+len(traced)+1, err)
			}
			*rounds = append(*rounds, r)
		}
	}
	all := append(append([]serveRound(nil), plain...), traced...)

	var err error
	if out.digest, err = directDigest(pool); err != nil {
		return nil, err
	}
	counts := map[string]int{}
	var lat, ttfe []float64
	var jobs int
	for i, r := range all {
		ttfe = append(ttfe, r.ttfe...)
		for _, j := range r.jobs {
			jobs++
			counts[j.class]++
			switch {
			case j.err != "":
				out.fail("serve seed %d round %d %s job %s: %s", c.seed, i+1, j.key, j.id, j.err)
			case j.tables != out.digest[j.key.String()].SHA256:
				out.fail("serve seed %d round %d %s job %s (%s): tables differ from a direct run", c.seed, i+1, j.key, j.id, j.class)
			default:
				lat = append(lat, j.latency.Seconds()*1e3)
			}
		}
	}
	out.attempted += jobs
	out.notes = append(out.notes,
		fmt.Sprintf("%d untraced and %d traced rounds, %d jobs: %d hit, %d miss, %d coalesced, %d single-flight, %d rejected, %d failed",
			len(plain), len(traced), jobs, counts[classHit], counts[classMiss], counts[classCoalesced],
			counts[classSingleFlight], counts[classRejected], counts[classFailed]))

	if !c.traced {
		var wall float64
		for _, r := range plain {
			setups = append(setups, r.setup.Seconds())
			wall += r.sample.wall.Seconds()
		}
		summarize(samplesOf(plain), out.metrics)
		p99 := quantile(lat, 0.99)
		out.metrics["jobs_per_s"] = float64(len(lat)) / wall
		out.metrics["job_p50_ms"] = median(lat)
		out.metrics["job_p99_ms"] = p99
		out.metrics["setup_s"] = median(setups)
		var walls []string
		for _, r := range plain {
			walls = append(walls, fmt.Sprintf("%.2f", r.sample.wall.Seconds()))
		}
		byClass := map[string][]float64{}
		for _, r := range plain {
			for _, j := range r.jobs {
				byClass[j.class] = append(byClass[j.class], j.latency.Seconds()*1e3)
			}
		}
		out.notes = append(out.notes, "round walls (s): "+strings.Join(walls, " "),
			fmt.Sprintf("latency p50 (ms): hit %.3f, miss %.1f, coalesced %.1f, single-flight %.1f",
				median(byClass[classHit]), median(byClass[classMiss]), median(byClass[classCoalesced]), median(byClass[classSingleFlight])))
		n := beyond(lat, p99)
		out.notes = append(out.notes, fmt.Sprintf("job latency over %d samples, %d beyond p99", len(lat), n))
		if n < 10 {
			fmt.Fprintf(os.Stderr, "perfbench: only %d job latencies beyond p99; run longer\n", n)
		}
		return out, nil
	}

	notes, err := serveLayers(out.metrics, plain, traced)
	if err != nil {
		return nil, err
	}
	out.notes = append(out.notes, notes...)
	m := out.metrics
	done := jobs - counts[classFailed] - counts[classRejected]
	stored := counts[classHit] + counts[classSingleFlight]
	m["store.hit_ratio"] = ratio(stored, stored+counts[classMiss])
	m["queue.coalesced_share"] = ratio(counts[classCoalesced], done)
	m["store.singleflight_share"] = ratio(counts[classSingleFlight], done)
	m["service.rejected_share"] = ratio(counts[classRejected], jobs)
	m["stream.ttfe_ms_p50"] = median(ttfe)
	return out, nil
}

// serveLayers sets the per-layer metrics the traced rounds' CPU profiles and
// wall-clock spans give, and returns notes on them.
func serveLayers(m map[string]float64, plain, traced []serveRound) ([]string, error) {
	lm := newLayerMeter(m)
	samples := samplesOf(traced)
	var events, busy, self []float64
	var get, put, flight, queue, run []span
	for _, r := range traced {
		if err := lm.add(r.prof); err != nil {
			return nil, err
		}
		events = append(events, float64(r.sample.events))
		queued := map[string]bool{}
		for _, j := range r.jobs {
			queued[j.id] = j.class != classHit && j.class != classRejected
		}
		var post, store, sweeps []span
		for _, s := range r.spans {
			switch {
			case s.layer == "http" && strings.HasPrefix(s.name, "POST "):
				post = append(post, s)
			case s.layer == "store":
				store = append(store, s)
				switch s.name {
				case "store.get":
					get = append(get, s)
				case "store.put":
					put = append(put, s)
				case "store.flight-wait":
					flight = append(flight, s)
				}
			case s.layer == "queue" && queued[s.job]:
				queue = append(queue, s)
			case s.layer == "runner" && s.cat == "run":
				run = append(run, s)
			case s.layer == "runner" && s.cat == "sweep":
				sweeps = append(sweeps, s)
			}
		}
		busy = append(busy, sum(durationsMS(sweeps))/1e3)
		// A submit's own work is its span less the store reads it waited
		// on; the queue and the workers run on other goroutines.
		for _, p := range post {
			own := filterSpans(store, func(s span) bool { return s.trace == p.trace })
			self = append(self, p.ms()-covered(p.start, p.end, own)/1e3)
		}
	}
	note := lm.finish(len(traced))
	m["sim.events"] = median(events)
	if e := sum(events); e > 0 {
		m["sim.ns_per_event"] = m["sim.cpu_s"] * float64(len(traced)) * 1e9 / e
	}
	m["runner.busy_s"] = median(busy)
	m["http.self_ms_p50"] = median(self)
	m["store.get_ms_p50"] = median(durationsMS(get))
	m["store.put_ms_p50"] = median(durationsMS(put))
	m["store.flight_wait_ms_p99"] = quantile(durationsMS(flight), 0.99)
	m["queue.wait_ms_p50"] = median(durationsMS(queue))
	m["queue.wait_ms_p99"] = quantile(durationsMS(queue), 0.99)
	m["runner.run_ms_p50"] = median(durationsMS(run))
	m["trace.overhead_ratio"] = medianWall(samples) / medianWall(samplesOf(plain))
	return []string{note, fmt.Sprintf("%d store flight waits in traced rounds", len(flight))}, nil
}

// completed counts the jobs of rs that finished without an error.
func completed(rs []serveRound) int {
	n := 0
	for _, r := range rs {
		for _, j := range r.jobs {
			if j.err == "" {
				n++
			}
		}
	}
	return n
}

func samplesOf(rs []serveRound) []sample {
	out := make([]sample, len(rs))
	for i, r := range rs {
		out[i] = r.sample
	}
	return out
}

// qsmd is one in-process service over a fresh store directory, with a
// client for its loopback listener.
type qsmd struct {
	dir    string
	sch    *service.Scheduler
	srv    *http.Server
	served chan error
	cl     *client
}

// startService opens a fresh store, starts the service and its listener,
// and waits until /healthz answers; the time this takes is a set-up.
func startService(tr *obs.WallTracer) (*qsmd, time.Duration, error) {
	dir, err := os.MkdirTemp("", "perfbench-store-*")
	if err != nil {
		return nil, 0, err
	}
	q := &qsmd{dir: dir, served: make(chan error, 1)}
	t0 := time.Now()
	if err := q.start(tr); err != nil {
		q.stop()
		return nil, 0, err
	}
	return q, time.Since(t0), nil
}

func (q *qsmd) start(tr *obs.WallTracer) error {
	st, err := store.Open(q.dir, 0)
	if err != nil {
		return err
	}
	if q.sch, err = service.New(service.Config{Store: st, Workers: sweepWorkers, SimParallelism: 1, Tracer: tr}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	q.srv = &http.Server{Handler: q.sch.TraceMiddleware(q.sch.Handler())}
	go func() { q.served <- q.srv.Serve(ln) }()
	q.cl = &client{
		base: "http://" + ln.Addr().String(),
		http: &http.Client{Timeout: serveTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 2 * sweepWorkers}},
	}
	if _, err := q.cl.do("GET", "/healthz", nil, nil); err != nil {
		return fmt.Errorf("service not ready: %w", err)
	}
	return nil
}

// stop shuts the listener and the service down and removes the store.
func (q *qsmd) stop() (err error) {
	ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
	defer cancel()
	if q.srv != nil {
		// Client connections go first: the server's shutdown waits up to
		// five seconds on a dialled connection that never sent a request.
		q.cl.http.CloseIdleConnections()
		if serr := q.srv.Shutdown(ctx); serr != nil {
			err = fmt.Errorf("shutdown: %w", serr)
		}
		if serr := <-q.served; serr != http.ErrServerClosed && err == nil {
			err = fmt.Errorf("serve: %w", serr)
		}
	}
	if q.sch != nil {
		if derr := q.sch.Drain(ctx); derr != nil && err == nil {
			err = fmt.Errorf("drain: %w", derr)
		}
	}
	os.RemoveAll(q.dir)
	return err
}

// serveOnce starts a fresh service, runs both clients to the end of their
// scripts, fetches every result the jobs name, and stops the service.
func serveOnce(pool []poolKey, traced bool) (r serveRound, err error) {
	var tr *obs.WallTracer
	if traced {
		tr = obs.NewWallTracer(0)
	}
	q, setup, err := startService(tr)
	if err != nil {
		return r, err
	}
	defer func() {
		if serr := q.stop(); err == nil {
			err = serr
		}
	}()
	r.setup = setup
	cl := q.cl

	clients := func() error {
		var wg sync.WaitGroup
		var single, batched []jobRec
		wg.Add(2)
		go func() {
			defer wg.Done()
			pick := picker(0, pool)
			for i := 0; i < serveSingles; i++ {
				single = append(single, cl.single(pick()))
			}
		}()
		go func() {
			defer wg.Done()
			pick := picker(1, pool)
			for i := 0; i < serveBatches; i++ {
				keys := make([]poolKey, serveBatchSize)
				for k := range keys {
					keys[k] = pick()
				}
				batched = append(batched, cl.batch(keys)...)
			}
		}()
		wg.Wait()
		r.jobs = append(single, batched...)
		return nil
	}
	var prof *[]byte
	if traced {
		prof = &r.prof
	}
	if r.sample, err = measure(prof, clients); err != nil {
		return r, err
	}
	r.ttfe = cl.ttfe
	cl.fetchResults(r.jobs)
	if traced {
		r.spans, err = exportSpans(tr)
	}
	return r, err
}

// picker draws pool keys Zipf-hot from a stream fixed by the client alone.
// Every round replays the same draws over a fresh store, as the other
// workloads repeat the same experiments, and the draws are the same for
// every seed, which picks the experiments' seeds: the traffic's luck does
// not masquerade as a change in speed.
func picker(client int, pool []poolKey) func() poolKey {
	rng := rand.New(rand.NewSource(int64(client) + 1))
	z := rand.NewZipf(rng, serveZipf, 1, uint64(len(pool)-1))
	return func() poolKey { return pool[z.Uint64()] }
}

// client is one round's HTTP client; its two goroutines share it.
type client struct {
	base string
	http *http.Client
	mu   sync.Mutex
	ttfe []float64
}

func submitBody(k poolKey) map[string]any {
	return map[string]any{"experiment": k.id, "seed": k.seed, "runs": 1, "quick": true}
}

// do sends one request with a JSON body and decodes a JSON reply into v,
// returning the status code; any status but 200 and 202 is an error.
func (cl *client) do(method, path string, body, v any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, cl.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(b)))
	}
	if v != nil {
		if err := json.Unmarshal(b, v); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// single submits one job and follows its event stream to the terminal
// state unless admission already answered from the store.
func (cl *client) single(k poolKey) jobRec {
	rec := jobRec{key: k}
	t0 := time.Now()
	var st wireStatus
	code, err := cl.do("POST", "/v1/jobs", submitBody(k), &st)
	rec.id = st.ID
	switch {
	case code == http.StatusTooManyRequests:
		rec.class, rec.err = classRejected, err.Error()
		return rec
	case err != nil:
		rec.class, rec.err = classFailed, err.Error()
		return rec
	case st.State == "done" && st.Cached:
		rec.class, rec.resultKey, rec.latency = classHit, st.ResultKey, time.Since(t0)
		return rec
	}
	err = cl.follow("/v1/jobs/"+st.ID+"/events", func(typ string, data []byte) (bool, error) {
		if typ != "state" {
			return false, nil
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return false, err
		}
		return st.terminal(), nil
	})
	rec.latency = time.Since(t0)
	rec.class, rec.resultKey = st.class(), st.ResultKey
	if err == nil && st.State != "done" {
		err = fmt.Errorf("job %s: %s", st.State, st.Error)
	}
	if err != nil {
		rec.class, rec.err = classFailed, err.Error()
	}
	return rec
}

// batch submits keys as one batch and follows the batch's aggregate stream
// until every queued member reached its terminal state.
func (cl *client) batch(keys []poolKey) []jobRec {
	recs := make([]jobRec, len(keys))
	jobs := make([]map[string]any, len(keys))
	for i, k := range keys {
		recs[i].key = k
		jobs[i] = submitBody(k)
	}
	t0 := time.Now()
	var bs struct {
		EventsPath string `json:"events_path"`
		Jobs       []struct {
			Job   *wireStatus `json:"job"`
			Error string      `json:"error"`
			Code  int         `json:"code"`
		} `json:"jobs"`
	}
	_, err := cl.do("POST", "/v1/jobs:batch", map[string]any{"jobs": jobs}, &bs)
	if err == nil && len(bs.Jobs) != len(keys) {
		err = fmt.Errorf("batch answered %d of %d jobs", len(bs.Jobs), len(keys))
	}
	if err != nil {
		for i := range recs {
			recs[i].class, recs[i].err = classFailed, "batch submit: "+err.Error()
		}
		return recs
	}
	admitted := time.Since(t0)
	pending := map[string]int{}
	for i, item := range bs.Jobs {
		switch {
		case item.Job == nil && item.Code == http.StatusTooManyRequests:
			recs[i].class, recs[i].err = classRejected, item.Error
		case item.Job == nil:
			recs[i].class, recs[i].err = classFailed, item.Error
		case item.Job.State == "done" && item.Job.Cached:
			recs[i].id, recs[i].class, recs[i].resultKey, recs[i].latency = item.Job.ID, classHit, item.Job.ResultKey, admitted
		default:
			recs[i].id = item.Job.ID
			pending[item.Job.ID] = i
		}
	}
	if len(pending) == 0 {
		return recs
	}
	err = cl.follow(bs.EventsPath, func(typ string, data []byte) (bool, error) {
		if typ == "batch" {
			return true, nil
		}
		if typ != "state" {
			return false, nil
		}
		var st wireStatus
		if err := json.Unmarshal(data, &st); err != nil {
			return false, err
		}
		i, ok := pending[st.ID]
		if !ok || !st.terminal() {
			return false, nil
		}
		delete(pending, st.ID)
		recs[i].latency, recs[i].class, recs[i].resultKey = time.Since(t0), st.class(), st.ResultKey
		if st.State != "done" {
			recs[i].err = fmt.Sprintf("job %s: %s", st.State, st.Error)
		}
		return len(pending) == 0, nil
	})
	for _, i := range pending {
		msg := "batch stream ended before the job's terminal event"
		if err != nil {
			msg = err.Error()
		}
		recs[i].class, recs[i].err = classFailed, msg
	}
	return recs
}

// follow reads an event stream until handle reports the end. A stream that
// ends early, or marks dropped events, is reopened with Last-Event-ID so the
// service replays the gap; after maxResumes reconnects it is a failure. The
// time to the first event of the first connection is recorded.
func (cl *client) follow(path string, handle func(typ string, data []byte) (bool, error)) error {
	var last uint64
	var lastErr error
	first := true
	for attempt := 0; attempt <= maxResumes; attempt++ {
		req, err := http.NewRequest("GET", cl.base+path, nil)
		if err != nil {
			return err
		}
		if attempt > 0 {
			req.Header.Set("Last-Event-ID", strconv.FormatUint(last, 10))
		}
		t0 := time.Now()
		resp, err := cl.http.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return fmt.Errorf("GET %s: %s", path, resp.Status)
		}
		done, err := cl.readStream(bufio.NewReader(resp.Body), handle, &last, func() {
			if first {
				first = false
				cl.mu.Lock()
				cl.ttfe = append(cl.ttfe, time.Since(t0).Seconds()*1e3)
				cl.mu.Unlock()
			}
		})
		resp.Body.Close()
		if done || err != nil {
			return err
		}
	}
	return fmt.Errorf("GET %s: stream dropped and not resumed after %d reconnects (last error: %v)", path, maxResumes, lastErr)
}

// errDropped ends one connection's reading at a dropped-events marker.
var errDropped = errors.New("dropped")

// readStream dispatches one connection's events to handle. It reports
// whether handle saw the end; an early end of stream or a dropped marker
// returns false with no error, so the caller resumes.
func (cl *client) readStream(r *bufio.Reader, handle func(string, []byte) (bool, error), last *uint64, onEvent func()) (bool, error) {
	for {
		id, typ, data, err := readEvent(r)
		if err != nil {
			return false, nil
		}
		onEvent()
		if typ == "dropped" {
			return false, nil
		}
		if id > 0 {
			*last = id
		}
		done, err := handle(typ, data)
		if done || err != nil {
			return done, err
		}
	}
}

// readEvent reads one text/event-stream frame that carries data, skipping
// comment (heartbeat) frames.
func readEvent(r *bufio.Reader) (id uint64, typ string, data []byte, err error) {
	var lines []string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return 0, "", nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if lines != nil {
				return id, typ, []byte(strings.Join(lines, "\n")), nil
			}
			id, typ = 0, ""
		case strings.HasPrefix(line, ":"):
		default:
			field, value, _ := strings.Cut(line, ":")
			value = strings.TrimPrefix(value, " ")
			switch field {
			case "id":
				id, _ = strconv.ParseUint(value, 10, 64)
			case "event":
				typ = value
			case "data":
				lines = append(lines, value)
			}
		}
	}
}

// fetchResults reads each result the jobs name once and records the
// SHA-256 of its tables on every job, after checking that the entry is the
// one that job asked for.
func (cl *client) fetchResults(jobs []jobRec) {
	type result struct {
		exp string
		opt experiments.OptionsKey
		sum string
		err string
	}
	seen := map[string]result{}
	for i := range jobs {
		j := &jobs[i]
		if j.err != "" {
			continue
		}
		if j.resultKey == "" {
			j.err = "done without a result key"
			continue
		}
		res, ok := seen[j.resultKey]
		if !ok {
			var e struct {
				Experiment string                 `json:"experiment"`
				Options    experiments.OptionsKey `json:"options"`
				Tables     string                 `json:"tables"`
			}
			if _, err := cl.do("GET", "/v1/results/"+j.resultKey, nil, &e); err != nil {
				res.err = err.Error()
			}
			res.exp, res.opt, res.sum = e.Experiment, e.Options, sha(e.Tables)
			seen[j.resultKey] = res
		}
		j.tables, j.err = res.sum, res.err
		if want := j.key.options().Key(); j.err == "" && (res.exp != j.key.id || res.opt != want) {
			j.err = fmt.Sprintf("result %s holds %s %+v", store.ShortKey(j.resultKey), res.exp, res.opt)
		}
	}
}
