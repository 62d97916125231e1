package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/speccache"
	"repro/internal/spectral"
	"repro/internal/topoparse"
	"repro/internal/workload"
)

// serveParams sizes the serve-ingest workload.
type serveParams struct {
	n          int
	hz         float64         // round pacing, as lbserved -hz
	rates      []float64       // fixed ladder rungs: a low rate and the middle (headline) rate
	rungs      []time.Duration // how long each fixed rung offers arrivals
	rampFrom   float64         // the ramp's first rate, past the fixed rungs
	rampRatio  float64         // rate ratio of consecutive ramp steps
	rampStep   time.Duration   // how long each ramp step offers arrivals
	rampSteps  int             // most ramp steps in one ladder
	grace      time.Duration   // how long past its end a rung may catch up
	scrape     time.Duration   // GET /metrics period beside the writes
	spikes     int             // rebalance probes, spread evenly after the ladders
	a2cLimitMs float64         // a rung is OK when its a2c p99 is within this
	conns      int             // generator workers = connections
	mid        int             // index in rates of the headline rung
	spikeAmt   float64         // load of the first rebalance-probe spike; each next is 16×
	ladders    int             // repetitions of the whole ladder
	settle     time.Duration   // paced rounds before the first rung
}

// serveSizes sizes the workload for a run of the given budget. Each of the
// p.ladders ladders offers arrivals at the fixed rates and then climbs the
// ramp until a rate fails twice in a row; p.spikes/p.ladders spike probes
// follow each ladder.
func serveSizes(toy bool, seconds float64) serveParams {
	p := serveParams{
		n: 1 << 16, hz: 50, rates: []float64{500, 2000}, mid: 1,
		rampFrom: 4000, rampRatio: 1.2, rampSteps: 21, ladders: 4,
		grace: 250 * time.Millisecond, scrape: 500 * time.Millisecond,
		spikes: 8, a2cLimitMs: 50, conns: runtime.NumCPU(), spikeAmt: 1 << 43,
		settle: 200 * time.Millisecond,
	}
	if toy {
		p.n, p.rates, p.rampFrom, p.rampSteps = 1<<10, []float64{50, 200}, 400, 3
		p.ladders, p.spikes, p.settle = 1, 2, 50*time.Millisecond
	}
	scaled := func(s float64) time.Duration {
		return max(time.Duration(s*seconds/25*float64(time.Second)), 100*time.Millisecond)
	}
	p.rungs = []time.Duration{scaled(0.4), scaled(2)}
	p.rampStep = scaled(0.3)
	return p
}

// servedSession is the served balancer plus what the benchmark recorded
// of its rounds.
type servedSession struct {
	srv    *serve.Server
	n      int
	phases *obs.Phases // traced runs only
	rec    *recorder

	job float64 // load of one arrival

	mu       sync.Mutex
	commits  []time.Time // round k's commit, indexed by k
	stepDurs []time.Duration
}

func (s *servedSession) rounds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.commits)
}

// step runs one StepRound — arrivals queued before it are injected in it —
// and records its commit time.
func (s *servedSession) step(parent int) (float64, error) {
	var before [3]time.Duration
	if s.phases != nil {
		before = [3]time.Duration{s.phases.Duration(obs.PhaseStep), s.phases.Duration(obs.PhaseInject), s.phases.Duration(obs.PhaseCommit)}
	}
	t0 := time.Now()
	phi, err := s.srv.StepRound()
	t1 := time.Now()
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.commits = append(s.commits, t1)
	s.stepDurs = append(s.stepDurs, t1.Sub(t0))
	s.mu.Unlock()
	if s.rec.on() {
		id := s.rec.add("StepRound", layerServe, trackRounds, parent, t0, t1, nil)
		s.rec.tile(id, trackRounds, t0, []phaseSpan{
			{"Step", "diffusion", s.phases.Duration(obs.PhaseStep) - before[0]},
			{"Inject", layerCore, s.phases.Duration(obs.PhaseInject) - before[1]},
			{"Commit", layerCore, s.phases.Duration(obs.PhaseCommit) - before[2]},
		})
	}
	return phi, nil
}

// pace steps a round every 1/hz until stop closes, then returns. Time
// spent waiting for the next tick is an idle span: the round loop waits on
// the clock, not on a layer.
func (s *servedSession) pace(hz float64, stop <-chan struct{}, parent int) error {
	tick := time.NewTicker(time.Duration(float64(time.Second) / hz))
	defer tick.Stop()
	for {
		w0 := time.Now()
		select {
		case <-stop:
			s.rec.add("wait for tick", layerIdle, trackRounds, parent, w0, time.Now(), nil)
			return nil
		case <-tick.C:
		}
		s.rec.add("wait for tick", layerIdle, trackRounds, parent, w0, time.Now(), nil)
		if _, err := s.step(parent); err != nil {
			return err
		}
	}
}

// job is one scheduled generator request: an arrival or a metrics scrape.
type job struct {
	due    time.Duration // offset from the rung's start
	scrape bool
	node   int
	amount float64

	sent, done time.Duration
	status     int
	round      int
}

// rungStats summarizes one ladder rung.
type rungStats struct {
	rate                    float64
	offered, sent, accepted int
	acceptedPerS            float64
	a2cP50, a2cP99, ackP50  float64
	ackP99, lateP99         float64
	a2cWindowsP99           []float64 // a2c p99 of each tailWindow, by due time
	ackWindowsP99           []float64 // ack p99 of each tailWindow, by send time
	scrapes                 []float64
	ok                      bool
	ackedAmount             float64
	perRound                map[int]int
	failed                  int
	scrapesFailed           int
}

// runRung offers arrivals at rate for d (open loop: each request is sent
// when due, whatever happened to the previous ones) over p.conns
// connections, with rounds paced at p.hz. Arrivals form a Poisson process
// — exponential gaps at the offered rate — on uniformly random nodes, each
// of the served session's job size: the continuous-time form of the
// poisson-arrivals scenario.
func runRung(s *servedSession, client *http.Client, url string, p serveParams, rate float64, d time.Duration, rng *rand.Rand, parent int) (rungStats, error) {
	var jobs []*job
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		jobs = append(jobs, &job{due: time.Duration(t * float64(time.Second)), node: rng.Intn(s.n), amount: s.job})
	}
	for t := time.Duration(0); t < d; t += p.scrape {
		jobs = append(jobs, &job{due: t + p.scrape/2, scrape: true})
	}
	sortJobs(jobs)

	stop := make(chan struct{})
	paceErr := make(chan error, 1)
	go func() { paceErr <- s.pace(p.hz, stop, parent) }()

	start := time.Now()
	cutoff := d + p.grace
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, p.conns)
	for w := 0; w < p.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			track := int64(trackHTTP + w)
			s.rec.nameTrack(track, fmt.Sprintf("generator connection %d", w))
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				if d := j.due - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				if time.Since(start) > cutoff {
					return // the rest stay unsent: the generator fell behind
				}
				if err := doJob(client, url, j, start, s.rec, track, parent); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Every accepted arrival commits in the round its ack named; wait for
	// the last of those rounds.
	last := -1
	for _, j := range jobs {
		if !j.scrape && j.status == http.StatusAccepted && j.round > last {
			last = j.round
		}
	}
	for s.rounds() <= last {
		select {
		case err := <-paceErr: // the round loop stopped on its own: an error
			return rungStats{}, fmt.Errorf("round loop: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	close(stop)
	if err := <-paceErr; err != nil {
		return rungStats{}, err
	}
	for _, err := range errs {
		if err != nil {
			return rungStats{}, err
		}
	}
	return summarizeRung(s, jobs, rate, d, start, p), nil
}

func sortJobs(jobs []*job) {
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].due < jobs[b].due })
}

// doJob sends one request and records its timings.
func doJob(client *http.Client, url string, j *job, start time.Time, rec *recorder, track int64, parent int) error {
	var req *http.Request
	var err error
	name := "POST /arrive"
	if j.scrape {
		name = "GET /metrics"
		req, err = http.NewRequest(http.MethodGet, url+"/metrics", nil)
	} else {
		body := `{"node":` + strconv.Itoa(j.node) + `,"amt":` + strconv.FormatFloat(j.amount, 'g', -1, 64) + `}`
		req, err = http.NewRequest(http.MethodPost, url+"/arrive", bytes.NewBufferString(body))
	}
	if err != nil {
		return err
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	rec.add(name, layerServe, track, parent, t0, t1, nil)
	j.sent, j.done, j.status = t0.Sub(start), t1.Sub(start), resp.StatusCode
	if !j.scrape && resp.StatusCode == http.StatusAccepted {
		var ack struct {
			Round int `json:"round"`
		}
		if err := json.Unmarshal(b, &ack); err != nil {
			return fmt.Errorf("%s: ack %q: %w", name, b, err)
		}
		j.round = ack.Round
	}
	return nil
}

// acceptWindow is the window accepted throughput is counted in.
const acceptWindow = 100 * time.Millisecond

// tailWindow is the window a p99 is taken over before the median over
// windows: at the headline rate a window holds about 1000 arrivals, so ten
// lie past its p99. A stall of the shared host lasts milliseconds to a
// second or two: it fills the tails of the windows it falls in, and the
// median over a run's windows passes it by, while what every window sees —
// the tick an arrival waits for, the StepRound the mutex waits on, the
// collector — stays in.
const tailWindow = 500 * time.Millisecond

// windowed bins samples by their offset from the rung's start.
type windowed [][]float64

func newWindowed(d time.Duration) windowed { return make(windowed, max(int(d/tailWindow), 1)) }

func (w windowed) add(at time.Duration, x float64) {
	i := min(max(int(at/tailWindow), 0), len(w)-1)
	w[i] = append(w[i], x)
}

// p99s is the p99 of each window that holds a sample.
func (w windowed) p99s() []float64 {
	var out []float64
	for _, xs := range w {
		if len(xs) > 0 {
			out = append(out, quantile(xs, 0.99))
		}
	}
	return out
}

func summarizeRung(s *servedSession, jobs []*job, rate float64, d time.Duration, start time.Time, p serveParams) rungStats {
	st := rungStats{rate: rate, perRound: map[int]int{}}
	s.mu.Lock()
	commits := append([]time.Time(nil), s.commits...)
	s.mu.Unlock()
	var a2c, ack, late []float64
	perWindow := make([]float64, max(int(d/acceptWindow), 1))
	a2cW, ackW := newWindowed(d), newWindowed(d)
	for _, j := range jobs {
		if j.scrape {
			if j.status != 0 {
				st.scrapes = append(st.scrapes, ms(j.done-j.sent))
				if j.status != http.StatusOK {
					st.scrapesFailed++
				}
			}
			continue
		}
		st.offered++
		if j.status == 0 {
			// Never sent: the generator fell behind. The arrival waited at
			// least until the rung's cutoff.
			a2c = append(a2c, ms(d+p.grace-j.due))
			a2cW.add(j.due, ms(d+p.grace-j.due))
			continue
		}
		st.sent++
		late = append(late, ms(j.sent-j.due))
		ack = append(ack, ms(j.done-j.sent))
		ackW.add(j.sent, ms(j.done-j.sent))
		if j.status != http.StatusAccepted {
			st.failed++
			continue
		}
		st.accepted++
		st.ackedAmount += j.amount
		st.perRound[j.round]++
		if w := int(j.done / acceptWindow); w < len(perWindow) {
			perWindow[w]++
		}
		a2c = append(a2c, ms(commits[j.round].Sub(start)-j.due))
		a2cW.add(j.due, ms(commits[j.round].Sub(start)-j.due))
	}
	// Accepted throughput is the median over short windows of the rung, so
	// a stall of the machine during a few windows does not move it.
	st.acceptedPerS = median(perWindow) / acceptWindow.Seconds()
	st.a2cP50, st.a2cP99 = quantile(a2c, 0.5), quantile(a2c, 0.99)
	st.ackP50, st.ackP99 = quantile(ack, 0.5), quantile(ack, 0.99)
	st.lateP99 = quantile(late, 0.99)
	st.a2cWindowsP99, st.ackWindowsP99 = a2cW.p99s(), ackW.p99s()
	st.ok = st.sent == st.offered && st.failed == 0 && st.a2cP99 <= p.a2cLimitMs
	return st
}

// medianRung folds the repetitions of one rung into the median of each
// latency. A p99 is the median over every tailWindow of every repetition.
func medianRung(reps []rungStats) rungStats {
	var a2cWindows, ackWindows []float64
	for _, r := range reps {
		a2cWindows = append(a2cWindows, r.a2cWindowsP99...)
		ackWindows = append(ackWindows, r.ackWindowsP99...)
	}
	pick := func(f func(rungStats) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	return rungStats{
		rate:    reps[0].rate,
		a2cP50:  pick(func(r rungStats) float64 { return r.a2cP50 }),
		a2cP99:  median(a2cWindows),
		ackP50:  pick(func(r rungStats) float64 { return r.ackP50 }),
		ackP99:  median(ackWindows),
		lateP99: pick(func(r rungStats) float64 { return r.lateP99 }),
	}
}

// newServed opens the served balancer: a torus diffusion session with
// seeded initial loads on nproc round workers. On one worker, lbserved's
// default, a round's time depends on which core the worker ran on — 1.4 or
// 2.2 ms on the 2-CPU VM this was measured on — and the median round flips
// between the two from run to run; nproc workers span every core in each
// round. It also returns the load
// of one arrival: the poisson-arrivals scenario's job at its default rate
// (1% of the total initial load per round, over a mean of four jobs a
// round), rounded to a power of two. Every amount sent, spikes included, is
// then a multiple of it, so the sums the injection check compares are exact
// in any order while they stay below 2⁵³ jobs.
func newServed(c *config, g *graph.G, phases *obs.Phases) (*serve.Server, float64, error) {
	kind, err := workload.ParseKind("uniform")
	if err != nil {
		return nil, 0, err
	}
	loads := workload.Continuous(kind, g.N(), 1e6, rand.New(rand.NewSource(c.seed)))
	srv, err := serve.New(serve.Options{Config: core.Config{
		Graph: g, Algorithm: core.Diffusion, Mode: core.Continuous, Loads: loads,
		Workers: runtime.NumCPU(), Seed: c.seed, Phases: phases,
	}})
	return srv, math.Exp2(math.Round(math.Log2(0.01 * exactSum(loads) / 4))), err
}

// ladderRun is one climb of the ladder: the fixed rungs, then ramp steps
// up to and including the first rate that failed twice in a row.
type ladderRun struct {
	rungs   []rungStats
	retries int // ramp steps tried again after a failure
}

// maxOK is the highest rate the ladder sustained: where the a2c p99 crosses
// the limit, interpolated in log–log between the last OK rung and the first
// failed one. A ladder whose first rung failed sustained nothing; one that
// never failed sustained at least its top rate.
func (l ladderRun) maxOK(limitMs float64) float64 {
	for i, st := range l.rungs {
		if st.ok {
			continue
		}
		if i == 0 {
			return 0
		}
		lo := l.rungs[i-1]
		t := 0.0
		if st.a2cP99 > limitMs && limitMs > lo.a2cP99 && lo.a2cP99 > 0 {
			t = math.Log(limitMs/lo.a2cP99) / math.Log(st.a2cP99/lo.a2cP99)
		}
		return lo.rate * math.Pow(st.rate/lo.rate, t)
	}
	return l.rungs[len(l.rungs)-1].rate
}

// peakAccepted is the highest accepted throughput any rung reached.
func (l ladderRun) peakAccepted() float64 {
	peak := 0.0
	for _, st := range l.rungs {
		peak = max(peak, st.acceptedPerS)
	}
	return peak
}

// runServeIngest is the serve-ingest workload: an in-process serve.Server
// behind a loopback HTTP server, rounds paced at p.hz by the benchmark,
// arrivals offered open-loop on a ladder of rates that climbs past the
// knee, with metric scrapes beside them, each ladder followed by spike
// probes rebalanced with free-running rounds.
func runServeIngest(ctx context.Context, c *config, rec *recorder, o *outcome) error {
	p := serveSizes(c.toy, c.seconds)
	var g *graph.G
	var buildS []float64
	setup, err := timeSetup(setupReps, func() error {
		t0 := time.Now()
		var err error
		if g, err = topoparse.Build("torus", p.n, 1); err != nil {
			return err
		}
		buildS = append(buildS, time.Since(t0).Seconds())
		speccache.Shared().Reset()
		srv, _, err := newServed(c, g, nil)
		if err != nil {
			return err
		}
		hs := httptest.NewServer(srv.Handler())
		hs.Close()
		srv.Close()
		return nil
	})
	if err != nil {
		return err
	}
	o.set("setup_s", setup)
	o.set("topoparse.build_s", median(buildS))

	var phases *obs.Phases
	if rec.on() {
		phases = &obs.Phases{}
	}
	speccache.Shared().Reset()
	solves0 := spectral.SolveStats()
	t0 := time.Now()
	srv, jobAmt, err := newServed(c, g, phases)
	if err != nil {
		return err
	}
	openS := time.Since(t0).Seconds()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: p.conns, MaxIdleConnsPerHost: p.conns}}
	defer client.CloseIdleConnections()
	s := &servedSession{srv: srv, n: g.N(), job: jobAmt, phases: phases, rec: rec}
	rng := rand.New(rand.NewSource(c.seed*31 + 7))

	// A few paced rounds first, so the ladder starts on a running loop.
	stop := make(chan struct{})
	go func() { time.Sleep(p.settle); close(stop) }()
	if err := s.pace(p.hz, stop, -1); err != nil {
		return err
	}

	// The ladder runs p.ladders times, so a disturbance on the machine
	// spoils one repetition of a rung rather than the rung. Each climbs the
	// fixed rates and then the ramp, step by step, until a rate fails twice
	// in a row. The rebalance probes are spread between the ladders, so a
	// disturbance that lasts a few seconds spoils a few probes, not the
	// median of all of them.
	var ladders []ladderRun
	var att attribution
	var acked float64
	ackedCount := 0
	var probes, tracedProbes, refProbes []float64
	var paced []float64 // StepRound times of the paced rounds
	try := func(rep, i int, rate float64, d time.Duration) (rungStats, error) {
		// Each rung starts from a collected heap, so the garbage of a rung
		// past the knee is not collected during the next one.
		runtime.GC()
		root := rec.open(fmt.Sprintf("ladder %d rung %d: %.0f arrivals/s", rep, i, rate), layerBench, trackMain, -1)
		st, err := runRung(s, client, hs.URL, p, rate, d, rng, root)
		rec.close(root)
		if err != nil {
			return st, err
		}
		if rec.on() {
			att.merge(rec.attribute(root))
		}
		o.ops(st.sent, st.failed)
		o.ops(len(st.scrapes), st.scrapesFailed)
		acked += st.ackedAmount
		ackedCount += st.accepted
		return st, nil
	}
	// A rebalance probe is one spike arrival, then free-running rounds (as
	// lbserved's drain does) until Φ is back within ε of the spike's Φ.
	// Each spike is 16× the previous one (256× its Φ), so what is left of
	// the previous spike (at most ε of its Φ) and of the ladders' arrivals
	// stays far below the new target. In a traced run every other probe is
	// untraced: the overhead reference.
	probe := func(i int) error {
		prec := rec
		if rec.on() && i%2 == 0 {
			prec = nil
		}
		s.rec = prec
		defer func() { s.rec = rec }()
		root := prec.open(fmt.Sprintf("spike probe %d", i), layerBench, trackMain, -1)
		node := rng.Intn(s.n)
		j := &job{node: node, amount: p.spikeAmt * math.Pow(16, float64(i))}
		runtime.GC()
		start := time.Now()
		if err := doJob(client, hs.URL, j, start, prec, trackHTTP, root); err != nil {
			return err
		}
		o.op(j.status == http.StatusAccepted)
		if j.status != http.StatusAccepted {
			return fmt.Errorf("spike arrival refused: %d", j.status)
		}
		acked += j.amount
		ackedCount++
		r0 := s.rounds()
		phiS, err := s.step(root)
		if err != nil {
			return err
		}
		for phi := phiS; phi > 1e-3*phiS; {
			if phi, err = s.step(root); err != nil {
				return err
			}
		}
		d := time.Since(start)
		prec.close(root)
		o.notef("serve-ingest: spike probe %d rebalanced in %d free-running rounds, %.3fs", i, s.rounds()-r0, d.Seconds())
		if prec.on() {
			att.merge(rec.attribute(root))
			tracedProbes = append(tracedProbes, d.Seconds())
		} else {
			refProbes = append(refProbes, d.Seconds())
		}
		probes = append(probes, d.Seconds())
		return nil
	}
	for rep := 0; rep < p.ladders; rep++ {
		var l ladderRun
		from := s.rounds()
		for i := 0; i < len(p.rates)+p.rampSteps; i++ {
			rate, d := p.rampFrom*math.Pow(p.rampRatio, float64(i-len(p.rates))), p.rampStep
			if i < len(p.rates) {
				rate, d = p.rates[i], p.rungs[i]
			}
			st, err := try(rep, i, rate, d)
			if err != nil {
				return err
			}
			past := i >= len(p.rates) && !st.ok
			if past {
				// A stall of the shared host can fail one short step below
				// the knee. The knee is the first rate that fails twice in
				// a row; the better try stands for the rate.
				again, err := try(rep, i, rate, d)
				if err != nil {
					return err
				}
				l.retries++
				past = !again.ok
				if again.ok || again.a2cP99 < st.a2cP99 {
					st = again
				}
			}
			l.rungs = append(l.rungs, st)
			if past {
				break
			}
		}
		ladders = append(ladders, l)
		s.mu.Lock()
		paced = append(paced, durations(s.stepDurs[from:])...)
		s.mu.Unlock()
		for len(probes) < (rep+1)*p.spikes/p.ladders {
			if err := probe(len(probes)); err != nil {
				return err
			}
		}
	}
	midReps := rungReps(ladders, p.mid)
	mid := medianRung(midReps)
	for i, st := range midReps {
		o.notef("serve-ingest: ladder %d at %.0f/s, p99 per %v window: a2c %.1f ms, ack %.2f ms", i, st.rate, tailWindow, st.a2cWindowsP99, st.ackWindowsP99)
	}
	var maxOK, peak []float64
	for i, l := range ladders {
		maxOK = append(maxOK, l.maxOK(p.a2cLimitMs))
		peak = append(peak, l.peakAccepted())
		for _, st := range l.rungs {
			o.notef("serve-ingest: ladder %d rate %6.0f/s  sent %6d/%-6d accepted %8.1f/s  a2c p50 %7.2f p99 %8.2f ms  ack p50 %7.2f p99 %8.2f ms  late p99 %8.2f ms  ok=%v",
				i, st.rate, st.sent, st.offered, st.acceptedPerS, st.a2cP50, st.a2cP99, st.ackP50, st.ackP99, st.lateP99, st.ok)
		}
		o.notef("serve-ingest: ladder %d sustained %.0f/s, peak accepted %.0f/s, %d steps tried twice", i, maxOK[i], peak[i], l.retries)
	}

	m := srv.Metrics()
	o.check("serve-ingest: injected load equals the 202-acknowledged load", checkInjected(acked, ackedCount, m.LoadInjected, m.ArrivalsTotal))
	srv.Close()

	s.mu.Lock()
	medRound := median(durations(s.stepDurs))
	rounds := len(s.stepDurs)
	s.mu.Unlock()

	o.set("cells_per_s", median(peak))
	o.set("max_ok_rate", median(maxOK))
	o.set("time_to_eps_s", median(probes))
	// The round loop's throughput at the median StepRound time, so a stall
	// of the machine during a few rounds does not move it.
	o.set("node_rounds_per_s", float64(s.n)/medRound)
	o.set("a2c_p50_ms", mid.a2cP50)
	o.set("a2c_p99_ms", mid.a2cP99)
	o.set("ack_p99_ms", mid.ackP99)

	// Per-layer numbers.
	var scrapes []float64
	pending := 0
	for _, l := range ladders {
		for _, st := range l.rungs {
			scrapes = append(scrapes, st.scrapes...)
			for _, k := range st.perRound {
				pending = max(pending, k)
			}
		}
	}
	o.set("serve.step_round_s", sum(paced)/float64(len(paced)))
	o.set("serve.ack_p50_ms", mid.ackP50)
	o.set("serve.metrics_get_p99_ms", quantile(scrapes, 0.99))
	o.set("serve.pending_peak", float64(pending))
	o.set("serve.gen_late_p99_ms", mid.lateP99)
	setSolves(o, solves0, 1)
	o.set("session.open_s", openS)
	if rec.on() {
		o.set("spectral.lambda2_s", phases.Duration(obs.PhaseSpectra).Seconds())
		setRoundPhases(o, phases.Duration(obs.PhaseStep).Seconds(), phases.Duration(obs.PhaseCommit).Seconds(),
			phases.Duration(obs.PhaseInject).Seconds(), 0)
		setStepperRates(o, map[string]time.Duration{"diffusion": phases.Duration(obs.PhaseStep)},
			map[string]float64{"diffusion": float64(s.n) * float64(rounds)},
			map[string]float64{"diffusion": float64(s.n) * float64(rounds) * meanDegree(g)})
		setTraceMetrics(c, o, att, median(tracedProbes), median(refProbes))
	}
	return nil
}

// rungReps collects rung i of every ladder.
func rungReps(ladders []ladderRun, i int) []rungStats {
	reps := make([]rungStats, len(ladders))
	for k, l := range ladders {
		reps[k] = l.rungs[i]
	}
	return reps
}
