package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	goruntime "runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"privascope/internal/casestudy"
	"privascope/internal/cluster"
	"privascope/internal/core"
	"privascope/internal/risk"
	"privascope/internal/runtime"
	"privascope/internal/service"
	"privascope/internal/synth"
)

// ingestWorkload describes one ingest workload: open-loop reference phases
// for the latencies and closed-loop phases for the throughput.
type ingestWorkload struct {
	// refRate is the reference rate (events/s) the apply latencies are
	// measured at.
	refRate float64
	// closedEvents is how many events each closed-loop throughput phase
	// sends, and closedRepeats how many such phases, each on a fresh fleet,
	// throughput_per_s is the median of.
	closedEvents  int
	closedRepeats int
	// refShare is the share of --seconds a reference phase runs, and
	// refWindows how many equal windows it has. The latency metrics are
	// medians over the windows of refRepeats reference phases, each on a
	// fresh fleet.
	refShare   float64
	refWindows int
	refRepeats int
	// reader GETs /alerts from every node once per latency window during
	// the reference phase.
	reader bool
	// stream builds a phase's events for its users.
	stream func(rng *rand.Rand, p *core.PrivacyLTS, ids []string, perUser int) eventStream
	// eventsPerUser is how many events one user contributes to the stream.
	eventsPerUser int
}

const (
	fleetNodes = 2
	// closedWindow bounds the events a closed-loop phase keeps in flight:
	// far below a node's admission bound, so throughput phases never meet
	// 429 and its one-second Retry-After, and small enough that an event's
	// send-to-apply time stays within applyLimit at any rate above
	// closedWindow/applyLimit.
	closedWindow = 4096
	// applyLimit is the apply-latency limit at the p90 the closed-loop
	// phases are checked against: one router FlushInterval.
	applyLimit = 50 * time.Millisecond
	// interleave is how many users' event sequences are interleaved
	// round-robin at a time, so every stretch of the stream mixes every
	// step of the users' walks.
	interleave = 1024
	// registerChunk keeps each /register body far below MaxFrameBytes:
	// Router.Register sends one unchunked body per node.
	registerChunk = 10000
	// pollEvery is the poller's sampling period for applied-event counts.
	pollEvery = 250 * time.Microsecond
	// warmupSeconds of traffic at the reference rate opens the h2c
	// connections and grows the heap before timing starts.
	warmupSeconds = 0.25
	// drainTimeout bounds the wait for a phase's events to be applied.
	drainTimeout = 30 * time.Second
)

// Surgery model sizes from the paper (Fig. 3): the ingest set-up checks them.
const (
	surgeryStates         = 47
	surgeryTransitions    = 49
	surgeryPotentialReads = 34
)

var (
	// ingestSteady replays consented medical-service walks: 10 matched events
	// per user, one of which raises a risk alert.
	ingestSteady = ingestWorkload{
		refRate:       150000,
		refShare:      0.15,
		refWindows:    5,
		refRepeats:    3,
		closedEvents:  400000,
		closedRepeats: 5,
		stream:        walkStream,
		eventsPerUser: 10,
	}
	// ingestAlerting replays synth.RandomEventStream, where most events are
	// unmodelled or denied and so append alerts, while a reader fetches the
	// alert logs. A fleet keeps every alert, about 1.5 KiB of heap each, so
	// its phases are kept to 160k events.
	ingestAlerting = ingestWorkload{
		refRate:       50000,
		refShare:      0.12,
		refWindows:    3,
		refRepeats:    4,
		closedEvents:  160000,
		closedRepeats: 7,
		reader:        true,
		stream:        randomStream,
		eventsPerUser: 16,
	}
)

// eventStream is a phase's event sequence, generated before the phase.
type eventStream interface {
	event(i int) service.Event
	user(i int) int
}

// walkEvents interleaves copies of one walk script, one user per copy.
type walkEvents struct {
	script []service.Event
	ids    []string
}

func (w *walkEvents) user(i int) int {
	block := interleave * len(w.script)
	return i/block*interleave + i%block%interleave
}

func (w *walkEvents) event(i int) service.Event {
	block := interleave * len(w.script)
	ev := w.script[i%block/interleave]
	ev.UserID = w.ids[w.user(i)]
	return ev
}

func walkStream(_ *rand.Rand, p *core.PrivacyLTS, ids []string, _ int) eventStream {
	return &walkEvents{script: synth.WalkScripts(p, []string{""})[0], ids: ids}
}

// materialised is an event stream held in memory.
type materialised struct {
	events []service.Event
	users  []int32
}

func (m *materialised) event(i int) service.Event { return m.events[i] }
func (m *materialised) user(i int) int            { return int(m.users[i]) }

func randomStream(rng *rand.Rand, p *core.PrivacyLTS, ids []string, perUser int) eventStream {
	m := &materialised{}
	for start := 0; start < len(ids); start += interleave {
		group := ids[start:min(start+interleave, len(ids))]
		m.events = append(m.events, synth.RandomEventStream(rng, p, group, perUser)...)
		for i := 0; i < perUser; i++ {
			for u := range group {
				m.users = append(m.users, int32(start+u))
			}
		}
	}
	return m
}

// fleet is the ingest cluster under test: two nodes named node0 and node1 on
// loopback h2c, fronted by one Router.
type fleet struct {
	nodes  []*cluster.Node
	urls   []string
	router *cluster.Router

	local   *cluster.Local
	servers []*http.Server
	tt      *tracingTransport
}

// startFleet starts the untraced fleet through cluster.StartLocal with its
// defaults, or, when t is set, the same fleet assembled from public parts
// with span-recording wrappers around each node's handler and the router's
// transport.
func startFleet(p *core.PrivacyLTS, t *tracer) (*fleet, error) {
	if t == nil {
		local, err := cluster.StartLocal(p, fleetNodes, cluster.NodeConfig{}, cluster.RouterConfig{})
		if err != nil {
			return nil, err
		}
		f := &fleet{nodes: local.Nodes, router: local.Router, local: local}
		for _, s := range local.Servers {
			f.urls = append(f.urls, s.URL())
		}
		return f, nil
	}
	f := &fleet{}
	urls := make(map[string]string, fleetNodes)
	for i := 0; i < fleetNodes; i++ {
		node, err := cluster.NewNode(p, cluster.NodeConfig{Name: fmt.Sprintf("node%d", i)})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, node)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		var protocols http.Protocols
		protocols.SetHTTP1(true)
		protocols.SetUnencryptedHTTP2(true)
		srv := &http.Server{
			Handler:           tracingHandler{inner: node.Handler(), t: t},
			ReadHeaderTimeout: 5 * time.Second,
			Protocols:         &protocols,
		}
		go func() { _ = srv.Serve(ln) }()
		f.servers = append(f.servers, srv)
		url := "http://" + ln.Addr().String()
		f.urls = append(f.urls, url)
		urls[node.Name()] = url
	}
	f.tt = &tracingTransport{inner: cluster.H2CTransport(), t: t}
	router, err := cluster.NewRouter(cluster.RouterConfig{Nodes: urls, HTTPClient: &http.Client{Transport: f.tt}})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.router = router
	return f, nil
}

// stop closes the router, the servers and the nodes, waiting for each.
func (f *fleet) stop() {
	if f.local != nil {
		_ = f.local.Stop(context.Background())
		return
	}
	if f.router != nil {
		_ = f.router.Close()
	}
	for _, s := range f.servers {
		_ = s.Shutdown(context.Background())
	}
	for _, n := range f.nodes {
		n.Close()
	}
}

// applied returns how many events the node has applied to its monitor.
func applied(n *cluster.Node) int64 {
	st := n.Stats()
	return st.Events - st.QueueDepth
}

// ingestRun is one ingest workload run: the seeded source of its inputs,
// the fleet currently up, and the tally of offline monitors fed the same
// events, which that fleet must match.
type ingestRun struct {
	w   ingestWorkload
	p   *core.PrivacyLTS
	rng *rand.Rand
	t   *tracer // builds traced fleets when set

	fleet         *fleet
	node          map[string]uint8 // fleet index by node name
	offline       runtime.IngestStats
	offlineAlerts []uint64
}

// phaseInput is one phase's users, registered with the fleet, and their
// events.
type phaseInput struct {
	profiles []risk.UserProfile
	stream   eventStream
	owner    []uint8 // fleet index per user
	count    int     // events the phase sends, a prefix of the stream
	// read runs the workload's /alerts reader during the phase.
	read bool
}

// newIngestRun generates the surgery LTS and checks its size.
func newIngestRun(w ingestWorkload, seed int64, t *tracer) (*ingestRun, error) {
	p, err := core.Generate(casestudy.Surgery())
	if err != nil {
		return nil, err
	}
	states, transitions, potential := p.Graph.StateCount(), p.Graph.TransitionCount(), len(p.PotentialTransitions())
	if states != surgeryStates || transitions != surgeryTransitions || potential != surgeryPotentialReads {
		return nil, fmt.Errorf("check: surgery LTS has %d states, %d transitions and %d potential reads, want %d, %d and %d",
			states, transitions, potential, surgeryStates, surgeryTransitions, surgeryPotentialReads)
	}
	return &ingestRun{w: w, p: p, rng: rand.New(rand.NewSource(seed)), t: t}, nil
}

// up starts a fresh fleet, warms it up at the reference rate and prepares
// count events for it. Every phase gets its own fleet, so what a phase
// measures does not depend on how much alert history earlier phases left.
func (run *ingestRun) up(ctx context.Context, count int) (*phaseInput, error) {
	f, err := startFleet(run.p, run.t)
	if err != nil {
		return nil, err
	}
	run.fleet = f
	run.node = make(map[string]uint8, fleetNodes)
	for i, n := range f.nodes {
		run.node[n.Name()] = uint8(i)
	}
	warmIn, err := run.prepare(ctx, int(run.w.refRate*warmupSeconds))
	if err == nil {
		warm := run.phase(ctx, warmIn, run.w.refRate, 1, nil)
		if warm.missing > 0 || warm.sendErrs > 0 {
			err = fmt.Errorf("warm-up: %d events never applied, %d send errors", warm.missing, warm.sendErrs)
		} else {
			err = run.retire(warmIn, warm.sent)
		}
	}
	var in *phaseInput
	if err == nil {
		in, err = run.prepare(ctx, count)
	}
	if err != nil {
		run.stop()
		return nil, err
	}
	return in, nil
}

// stop stops the fleet, forgets its tally and hands the fleet's memory
// back to the system, so the process never holds two fleets' worth.
func (run *ingestRun) stop() {
	if run.fleet != nil {
		run.fleet.stop()
	}
	run.fleet = nil
	run.offline = runtime.IngestStats{}
	run.offlineAlerts = nil
	debug.FreeOSMemory()
}

// prepare generates the next count events from the run's seeded source, each
// walk or random stream for a fresh user, registers those users with the
// fleet in chunks, and collects the garbage that left, so it is not charged
// to the phase.
func (run *ingestRun) prepare(ctx context.Context, count int) (*phaseInput, error) {
	users := (count + run.w.eventsPerUser - 1) / run.w.eventsPerUser
	users = (users + interleave - 1) / interleave * interleave
	base := casestudy.PatientProfile()
	in := &phaseInput{profiles: make([]risk.UserProfile, users), owner: make([]uint8, users), count: count}
	ids := make([]string, users)
	ring := run.fleet.router.Ring()
	for i := range ids {
		ids[i] = fmt.Sprintf("u%016x", run.rng.Uint64())
		in.profiles[i] = base
		in.profiles[i].ID = ids[i]
		in.owner[i] = run.node[ring.Owner(ids[i])]
	}
	in.stream = run.w.stream(run.rng, run.p, ids, run.w.eventsPerUser)
	for start := 0; start < users; start += registerChunk {
		if err := run.fleet.router.Register(ctx, in.profiles[start:min(start+registerChunk, users)]); err != nil {
			return nil, err
		}
	}
	goruntime.GC()
	return in, nil
}

// retire replays the phase's first sent events through a fresh offline
// monitor and adds its stats and alerts to the fleet's tally. Users never
// recur across phases, so per-phase offline monitors see exactly what one
// monitor of the fleet's whole stream would.
func (run *ingestRun) retire(in *phaseInput, sent int) error {
	m, err := runtime.NewMonitor(run.p, runtime.Config{})
	if err != nil {
		return err
	}
	for i := range in.profiles {
		if err := m.RegisterUser(in.profiles[i]); err != nil {
			return err
		}
	}
	batch := make([]service.Event, 0, 1<<16)
	for i := 0; i < sent; i++ {
		batch = append(batch, in.stream.event(i))
		if len(batch) == cap(batch) || i == sent-1 {
			run.offline.Merge(m.IngestBatch(batch))
			batch = batch[:0]
		}
	}
	for _, a := range m.Alerts() {
		run.offlineAlerts = append(run.offlineAlerts, alertKey(a))
	}
	return nil
}

// down compares the fleet with its offline tally, then stops it: the merged
// IngestStats and the sorted alert multisets must be equal, and no event may
// be lost.
func (run *ingestRun) down(ctx context.Context, res *result) {
	defer run.stop()
	f := run.fleet
	if err := f.router.Flush(ctx); err != nil {
		res.wrong("router flush: %v", err)
	}
	res.failed += int(f.router.Stats().DroppedEvents)
	var stats runtime.IngestStats
	var alerts []uint64
	for _, n := range f.nodes {
		st := n.Stats()
		stats.Merge(st.Ingest)
		for _, a := range n.Monitor().Alerts() {
			alerts = append(alerts, alertKey(a))
		}
	}
	if stats != run.offline {
		res.wrong("fleet IngestStats %+v differ from the offline monitor's %+v", stats, run.offline)
	}
	if missing := run.offline.Events - stats.Events; missing > 0 {
		res.failed += missing
		res.note("%d events sent but never applied", missing)
	}
	offline := run.offlineAlerts
	slices.Sort(alerts)
	slices.Sort(offline)
	if !slices.Equal(alerts, offline) {
		res.wrong("fleet raised %d alerts, the offline monitor %d, and the sorted multisets differ", len(alerts), len(offline))
	}
	res.note("fleet checked: %d events applied (%d matched, %d unmodelled, %d denied, %d risk alerts), %d alerts",
		stats.Events, stats.Matched, stats.Unmodelled, stats.Denied, stats.RiskAlerts, len(alerts))
}

// phaseResult is what one phase measured.
type phaseResult struct {
	sent     int
	perNode  []int64
	lat      []float64 // apply latencies, ms
	p50s     []float64 // per-window apply-latency p50s, ms
	p90s     []float64 // per-window apply-latency p90s, ms
	p50, p90 float64   // medians of the above
	ok       bool      // every window had a reportable p90
	missing  int       // events never seen applied
	sendErrs int
	lags     []float64     // generator lateness per send burst, ms
	sendNs   []int64       // Router.Send durations, traced phases only
	offered  float64       // events/s actually sent
	elapsed  time.Duration // from the first send until every event was applied
	depth    float64       // mean total queue depth
	applyEPS float64       // events/s applied over the phase
	reads    []alertRead
	readErrs int
}

// alertRead is one full GET /alerts.
type alertRead struct {
	ms    float64
	bytes int64
}

// phase sends the input's events on an open-loop schedule at rate events/s,
// or, when rate is 0, in a closed loop keeping at most closedWindow events in
// flight. It measures every event's apply latency from its scheduled (open
// loop) or actual (closed loop) send time: per-node delivery is FIFO, so a
// poller sampling each node's applied count tells when each per-node ordinal
// was applied. With a tracer it times every Router.Send call.
func (run *ingestRun) phase(ctx context.Context, in *phaseInput, rate float64, windows int, t *tracer) phaseResult {
	f := run.fleet
	count := in.count
	// dueNs is when the event with index i is due; unpaced events are all
	// due at once.
	dueNs := func(i int) int64 {
		if rate <= 0 {
			return 0
		}
		return int64(float64(i) / rate * 1e9)
	}
	res := phaseResult{sent: count, perNode: make([]int64, len(f.nodes))}
	base := make([]int64, len(f.nodes))
	for i, n := range f.nodes {
		base[i] = applied(n)
	}
	sched := make([][]int64, len(f.nodes))
	for i := range sched {
		sched[i] = make([]int64, 0, count/len(f.nodes)+count/8)
	}

	epoch := time.Now()
	samples := make([][]sample, len(f.nodes))
	var depthSum, depthN int64
	stopPoll := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			// The reading after stopPoll closes covers the events the drain
			// wait saw applied.
			stopping := false
			select {
			case <-stopPoll:
				stopping = true
			default:
			}
			at := int64(time.Since(epoch))
			var depth int64
			for i, n := range f.nodes {
				st := n.Stats()
				samples[i] = append(samples[i], sample{at: at, applied: st.Events - st.QueueDepth - base[i]})
				depth += st.QueueDepth
			}
			depthSum += depth
			depthN++
			if stopping {
				return
			}
			select {
			case <-stopPoll:
			case <-tick.C:
			}
		}
	}()
	stopRead := make(chan struct{})
	if in.read && rate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.reads, res.readErrs = readAlerts(f.urls, time.Duration(float64(count)/rate/float64(windows)*1e9), stopRead)
		}()
	}

	sent := 0
	for sent < count {
		now := time.Since(epoch)
		due := count
		if rate > 0 {
			due = min(int(now.Seconds()*rate)+1, count)
		} else {
			var done int64
			for i, n := range f.nodes {
				done += applied(n) - base[i]
			}
			due = min(int(done)+closedWindow, count)
		}
		if due <= sent {
			if rate > 0 {
				time.Sleep(time.Duration(dueNs(sent)) - now)
			} else {
				time.Sleep(50 * time.Microsecond)
			}
			continue
		}
		res.lags = append(res.lags, float64(now-time.Duration(dueNs(sent)))/1e6)
		sentAt := int64(now)
		for ; sent < due; sent++ {
			node := in.owner[in.stream.user(sent)]
			if rate > 0 {
				sched[node] = append(sched[node], dueNs(sent))
			} else {
				sched[node] = append(sched[node], sentAt)
			}
			ev := in.stream.event(sent)
			var err error
			if t != nil {
				start := time.Now()
				err = f.router.Send(ctx, ev)
				res.sendNs = append(res.sendNs, int64(time.Since(start)))
			} else {
				err = f.router.Send(ctx, ev)
			}
			if err != nil {
				res.sendErrs++
			}
		}
	}
	sendTime := time.Since(epoch)
	res.offered = float64(count) / sendTime.Seconds()
	close(stopRead)
	for i := range f.nodes {
		res.perNode[i] = int64(len(sched[i]))
	}

	deadline := time.Now().Add(drainTimeout)
	for time.Now().Before(deadline) {
		done := true
		for i, n := range f.nodes {
			if applied(n)-base[i] < res.perNode[i] {
				done = false
			}
		}
		if done {
			break
		}
		time.Sleep(time.Millisecond)
	}
	res.elapsed = time.Since(epoch)
	close(stopPoll)
	wg.Wait()

	var total int64
	var due []int64
	for i := range f.nodes {
		lat, missing := joinWatermarks(sched[i], samples[i])
		res.lat = append(res.lat, lat...)
		due = append(due, sched[i][:len(lat)]...)
		res.missing += missing
		if last := samples[i][len(samples[i])-1]; last.applied > 0 {
			total += last.applied
		}
	}
	span := dueNs(count)
	if rate <= 0 {
		span = int64(res.elapsed)
	}
	res.p50s, res.p90s, res.ok = windowed(due, res.lat, windows, max(span, 1))
	res.p50, res.p90 = median(res.p50s), median(res.p90s)
	if depthN > 0 {
		res.depth = float64(depthSum) / float64(depthN)
	}
	res.applyEPS = float64(total) / time.Since(epoch).Seconds()
	return res
}

// readAlerts GETs every node's full alert log at once and then once per
// interval until stop is closed, over a plain HTTP/1.1 client as an
// operator would. It returns the completed reads and how many failed.
func readAlerts(urls []string, interval time.Duration, stop <-chan struct{}) (reads []alertRead, failed int) {
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		for _, url := range urls {
			r, err := getAlerts(client, url)
			if err != nil {
				failed++
				continue
			}
			reads = append(reads, r)
		}
		select {
		case <-stop:
			return reads, failed
		case <-tick.C:
		}
	}
}

func getAlerts(client *http.Client, url string) (alertRead, error) {
	start := time.Now()
	resp, err := client.Get(url + "/alerts")
	if err != nil {
		return alertRead{}, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return alertRead{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return alertRead{}, fmt.Errorf("GET /alerts: %s", resp.Status)
	}
	return alertRead{ms: float64(time.Since(start)) / 1e6, bytes: n}, nil
}

// runIngest runs an ingest workload. Untraced: the reference phase gives the
// apply latencies and the heap, and closed-loop phases give
// throughput_per_s. Traced: the reference phase runs untraced and then
// traced, each on a traced fleet, and the per-layer metrics come from the
// second.
func runIngest(ctx context.Context, w ingestWorkload, cfg runConfig, res *result) error {
	refSeconds := cfg.seconds * w.refShare
	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	var run *ingestRun
	var ref *phaseInput
	err := res.timeSetup(func() error {
		var err error
		if run, err = newIngestRun(w, cfg.seed, t); err != nil {
			return err
		}
		ref, err = run.up(ctx, int(w.refRate*refSeconds))
		return err
	}, func() { run.stop() })
	if err != nil {
		return err
	}
	defer run.stop()

	if cfg.trace {
		return tracedIngest(ctx, run, ref, t, refSeconds, res)
	}
	var p50s, p90s []float64
	for i := 0; i < w.refRepeats; i++ {
		if i > 0 {
			if ref, err = run.up(ctx, int(w.refRate*refSeconds)); err != nil {
				return err
			}
		}
		ref.read = w.reader
		pr := run.phase(ctx, ref, w.refRate, w.refWindows, nil)
		res.attempted += pr.sent + len(pr.reads) + pr.readErrs
		res.failed += pr.missing + pr.sendErrs + pr.readErrs
		if !pr.ok {
			return fmt.Errorf("only %d events applied in the reference phase, too few for a p90 per window", len(pr.lat))
		}
		p50s = append(p50s, pr.p50s...)
		p90s = append(p90s, pr.p90s...)
		if i == 0 {
			res.set("heap_mb", liveHeapMiB(run))
		}
		if err := run.retire(ref, pr.sent); err != nil {
			return err
		}
		run.down(ctx, res)
	}
	res.set("latency_p50_ms", median(p50s))
	res.set("latency_p90_ms", median(p90s))

	var rates []float64
	for i := 0; i < w.closedRepeats; i++ {
		in, err := run.up(ctx, w.closedEvents)
		if err != nil {
			return err
		}
		pr := run.phase(ctx, in, 0, 1, nil)
		res.attempted += pr.sent
		res.failed += pr.missing + pr.sendErrs
		if err := run.retire(in, pr.sent); err != nil {
			return err
		}
		run.down(ctx, res)
		rate := float64(pr.sent) / pr.elapsed.Seconds()
		rates = append(rates, rate)
		over := ""
		if pr.p90 > float64(applyLimit)/1e6 {
			over = fmt.Sprintf(", over the %v limit", applyLimit)
		}
		res.note("closed loop: %.0f events/s, p90 send-to-apply %.1f ms%s", rate, pr.p90, over)
	}
	res.set("throughput_per_s", median(rates))
	return nil
}

// alertKey hashes everything an alert says about its event, leaving out the
// event's log sequence and timestamp, which the wire format need not carry.
func alertKey(a runtime.Alert) uint64 {
	ev := a.Event
	b := make([]byte, 0, 256)
	b = strconv.AppendInt(b, int64(a.Kind), 10)
	b = strconv.AppendInt(append(b, 0), int64(a.Risk), 10)
	b = strconv.AppendInt(append(b, 0), int64(ev.Action), 10)
	b = strconv.AppendBool(append(b, 0), ev.Denied)
	for _, s := range []string{a.UserID, a.Message, ev.Actor, ev.UserID, ev.Datastore, ev.Service, ev.Purpose} {
		b = append(append(b, 0), s...)
	}
	for _, f := range ev.Fields {
		b = append(append(b, 1), f...)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

var errNoSamples = errors.New("no samples")

// tracedIngest runs the reference phase untraced and then traced, each on a
// fresh traced fleet, and derives the per-layer metrics from the traced
// phase.
func tracedIngest(ctx context.Context, run *ingestRun, untracedIn *phaseInput, t *tracer, seconds float64, res *result) error {
	rate := run.w.refRate
	untracedIn.read = run.w.reader
	untraced := run.phase(ctx, untracedIn, rate, run.w.refWindows, nil)
	if err := run.retire(untracedIn, untraced.sent); err != nil {
		return err
	}
	run.down(ctx, res)
	in, err := run.up(ctx, int(rate*seconds))
	if err != nil {
		return err
	}
	f := run.fleet
	before := f.router.Stats()
	nodesBefore := nodeStats(f)
	gcBefore := readGC()
	t.on.Store(true)
	in.read = run.w.reader
	traced := run.phase(ctx, in, rate, run.w.refWindows, t)
	gc := readGC().since(gcBefore)
	after := f.router.Stats()
	nodesAfter := nodeStats(f)
	for _, ph := range []phaseResult{untraced, traced} {
		res.attempted += ph.sent + len(ph.reads) + ph.readErrs
		res.failed += ph.missing + ph.sendErrs + ph.readErrs
	}
	if len(untraced.lat) == 0 || len(traced.lat) == 0 {
		return errNoSamples
	}

	// Final alert-log reads, still traced.
	client := &http.Client{Transport: &http.Transport{}}
	var reads []float64
	var getBytes int64
	for _, r := range traced.reads {
		reads = append(reads, r.ms)
	}
	for _, url := range f.urls {
		r, err := getAlerts(client, url)
		if err != nil {
			client.CloseIdleConnections()
			return err
		}
		reads = append(reads, r.ms)
		getBytes += r.bytes
	}
	client.CloseIdleConnections()
	t.on.Store(false)
	var retained int
	mergeStart := time.Now()
	for _, n := range f.nodes {
		retained += len(n.Monitor().Alerts())
	}
	res.set("runtime.monitor.alerts_merge_ms", float64(time.Since(mergeStart))/1e6)
	res.set("runtime.monitor.alerts_retained", float64(retained))
	res.set("cluster.node.alerts_get_bytes", float64(getBytes))
	res.set("cluster.node.alerts_read_p50_ms", median(reads))

	res.set("trace.overhead_pct", (traced.p50-untraced.p50)/untraced.p50*100)
	res.set("loadgen.offered_eps", traced.offered)
	sort.Float64s(traced.lags)
	lag99, _ := percentile(traced.lags, 0.99)
	res.set("loadgen.lag_p99_ms", lag99)
	res.set("cluster.ring.skew", skew(traced.perNode))

	sendUs := make([]float64, len(traced.sendNs))
	blocked := 0.0
	for i, ns := range traced.sendNs {
		sendUs[i] = float64(ns) / 1e3
		if ns > int64(100*time.Microsecond) {
			blocked += float64(ns) / 1e6
		}
	}
	res.set("cluster.router.send_p50_us", median(sendUs))
	res.set("cluster.router.blocked_ms", blocked)
	frames := after.FramesSent - before.FramesSent
	res.set("cluster.router.frames", float64(frames))
	if frames > 0 {
		res.set("cluster.router.events_per_frame", float64(after.EventsSent-before.EventsSent)/float64(frames))
	}
	res.set("cluster.router.retries", float64(after.Retries-before.Retries))
	res.set("cluster.router.rejected_429", float64(after.Rejected429-before.Rejected429))
	res.set("cluster.router.dropped_events", float64(after.DroppedEvents-before.DroppedEvents))

	posts := t.durations("cluster.http.post")
	sort.Float64s(posts)
	p99, _ := percentile(posts, 0.99)
	res.set("cluster.http.post_p50_ms", median(posts))
	res.set("cluster.http.post_p99_ms", p99)
	res.set("cluster.http.requests", float64(len(posts)))
	res.set("cluster.node.handle_p50_ms", median(t.durations("cluster.node.handle")))
	res.set("cluster.node.queue_depth_mean", traced.depth)
	res.set("cluster.node.queue_wait_ms", traced.depth/traced.applyEPS*1e3)
	res.set("cluster.node.rejected_events", float64(nodesAfter.Rejected-nodesBefore.Rejected))
	res.set("cluster.node.deduped_frames", float64(nodesAfter.DedupedFrames-nodesBefore.DedupedFrames))
	res.set("go.gc_cycles", gc.cycles)
	res.set("go.gc_pause_ms", gc.pauseMs)
	res.set("go.gc_cpu_frac", gc.cpuFrac)

	if err := replayLayers(run, in, f.tt.captured(), res); err != nil {
		return err
	}
	if err := replayHandoff(f.nodes[0], res); err != nil {
		return err
	}
	res.spans = t
	if err := run.retire(in, traced.sent); err != nil {
		return err
	}
	run.down(ctx, res)
	return nil
}

// nodeStats sums the fleet's node counters.
func nodeStats(f *fleet) cluster.NodeStats {
	var sum cluster.NodeStats
	for _, n := range f.nodes {
		st := n.Stats()
		sum.Rejected += st.Rejected
		sum.DedupedFrames += st.DedupedFrames
	}
	return sum
}

// replayLayers times single layers on what the traced phase captured, frame
// by frame: the frame codec on the request bodies, Ring.Owner on the events'
// users, and Monitor.IngestBatch on each node's batches over a fresh monitor
// per node.
func replayLayers(run *ingestRun, in *phaseInput, bodies []capturedBody, res *result) error {
	profiles := make(map[string]*risk.UserProfile, len(in.profiles))
	for i := range in.profiles {
		profiles[in.profiles[i].ID] = &in.profiles[i]
	}
	monitors := make(map[string]*runtime.Monitor, len(run.fleet.urls))
	registered := make(map[string]bool, len(in.profiles))
	ring := run.fleet.router.Ring()
	var decode, encode, apply, owner time.Duration
	var wireBytes, events, owned int
	var allocs uint64
	var stats runtime.IngestStats
	for _, b := range bodies {
		m := monitors[b.host]
		if m == nil {
			var err error
			if m, err = runtime.NewMonitor(run.p, runtime.Config{}); err != nil {
				return err
			}
			monitors[b.host] = m
		}
		wireBytes += len(b.body)
		fr := cluster.NewFrameReader(bytes.NewReader(b.body))
		for {
			t0 := time.Now()
			batch, err := fr.Read()
			decode += time.Since(t0)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return fmt.Errorf("replaying captured frames: %w", err)
			}
			events += len(batch)

			t0 = time.Now()
			if _, err := cluster.EncodeFrame(batch); err != nil {
				return err
			}
			encode += time.Since(t0)

			t0 = time.Now()
			for i := range batch {
				if ring.Owner(batch[i].UserID) != "" {
					owned++
				}
			}
			owner += time.Since(t0)

			for _, ev := range batch {
				if p := profiles[ev.UserID]; p != nil && !registered[ev.UserID] {
					registered[ev.UserID] = true
					if err := m.RegisterUser(*p); err != nil {
						return err
					}
				}
			}
			before := mallocs()
			t0 = time.Now()
			stats.Merge(m.IngestBatch(batch))
			apply += time.Since(t0)
			allocs += mallocs() - before
		}
	}
	if events == 0 {
		return errNoSamples
	}
	perEvent := func(d time.Duration) float64 { return float64(d) / float64(events) }
	res.set("cluster.frame.decode_ns_per_event", perEvent(decode))
	res.set("cluster.frame.encode_ns_per_event", perEvent(encode))
	res.set("cluster.frame.bytes_per_event", float64(wireBytes)/float64(events))
	res.set("cluster.ring.owner_ns", float64(owner)/float64(owned))
	res.set("runtime.monitor.apply_ns_per_event", perEvent(apply))
	res.set("runtime.monitor.apply_allocs_per_event", float64(allocs)/float64(events))
	res.set("runtime.monitor.match_ratio", float64(stats.Matched)/float64(stats.Events))
	res.set("runtime.monitor.risk_alerts", float64(stats.RiskAlerts))
	res.set("runtime.monitor.unmodelled", float64(stats.Unmodelled))
	res.set("runtime.monitor.denied", float64(stats.Denied))
	return nil
}

// replayHandoff exports every user of the node and round-trips the snapshots
// through the handoff codec in frames of at most handoffChunk users.
func replayHandoff(n *cluster.Node, res *result) error {
	const handoffChunk = 8192
	users := n.Monitor().Users()
	snaps := make([]runtime.UserSnapshot, 0, len(users))
	for _, id := range users {
		if s, ok := n.Monitor().ExportUser(id); ok {
			snaps = append(snaps, s)
		}
	}
	var encode, decode time.Duration
	var size int
	for start := 0; start < len(snaps); start += handoffChunk {
		chunk := snaps[start:min(start+handoffChunk, len(snaps))]
		t0 := time.Now()
		frame, err := cluster.EncodeHandoff(chunk)
		if err != nil {
			return err
		}
		t1 := time.Now()
		back, err := cluster.DecodeHandoff(frame)
		if err != nil {
			return err
		}
		decode += time.Since(t1)
		encode += t1.Sub(t0)
		size += len(frame)
		if len(back) != len(chunk) {
			return fmt.Errorf("check: handoff round trip returned %d of %d users", len(back), len(chunk))
		}
	}
	res.set("cluster.handoff.encode_ms", float64(encode)/1e6)
	res.set("cluster.handoff.decode_ms", float64(decode)/1e6)
	if len(snaps) > 0 {
		res.set("cluster.handoff.bytes_per_user", float64(size)/float64(len(snaps)))
	}
	return nil
}
