package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/core"
	"graphsurge/internal/server"
	"graphsurge/internal/tenant"
)

// frontend is `graphsurge serve` in-process: internal/server over the
// engine with the tenant middleware at the CLI's default settings, on a
// loopback listener, plus the HTTP client the benchmark talks to it with.
type frontend struct {
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

func startFrontend(eng *core.Engine) (*frontend, error) {
	mw := tenant.New(eng, tenant.Options{
		Limits:        tenant.Limits{MaxQueue: 16, QueueTimeout: 5 * time.Second},
		CacheEntries:  256,
		CacheReplicas: 8,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &frontend{
		hs:     &http.Server{Handler: server.New(eng, server.Options{Tenant: mw}).Handler()},
		served: make(chan error, 1),
		url:    "http://" + l.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
	}
	go func() { f.served <- f.hs.Serve(l) }()
	return f, nil
}

func (f *frontend) close() {
	f.client.CloseIdleConnections()
	f.hs.Close()
	<-f.served
}

// post sends one request envelope to /v1/do and returns the open response.
func (f *frontend) post(ctx context.Context, env *server.Envelope) (*http.Response, error) {
	body, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.url+"/v1/do", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// do performs a non-run request and discards the JSON reply.
func (f *frontend) do(ctx context.Context, env *server.Envelope) error {
	resp, err := f.post(ctx, env)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// metrics scrapes /metrics and returns the named counters' values.
func (f *frontend) metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// runOut is what a streamed run response carried.
type runOut struct {
	status string // cacheStatus stamped in the summary event
	d      digest
	bytes  int
}

const resultPrefix = `{"event":"result","vertex":`

// run posts a diff-only (or given-mode) run and consumes the whole NDJSON
// stream: the summary's cacheStatus, a digest of every result record, and
// the done event's count, which must agree with the records seen.
func (f *frontend) run(ctx context.Context, collection string, a *algo, mode core.ExecMode) (runOut, error) {
	var out runOut
	resp, err := f.post(ctx, &server.Envelope{Run: &core.RunRequest{
		Collection: collection,
		Algorithm:  a.spec,
		Options:    core.RunOptions{Mode: mode, WeightProp: a.weight},
	}})
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	done := false
	for {
		line, err := br.ReadSlice('\n')
		out.bytes += len(line)
		if len(line) > 0 {
			if rest, ok := bytes.CutPrefix(line, []byte(resultPrefix)); ok {
				// The hot line, parsed by hand: vertex,"value":value}
				v, val, perr := parseResult(rest)
				if perr != nil {
					return out, perr
				}
				out.d.add(v, val)
			} else {
				var ev struct {
					Event   string `json:"event"`
					Error   string `json:"error"`
					Results int    `json:"results"`
					Run     struct {
						CacheStatus string `json:"cacheStatus"`
					} `json:"run"`
				}
				if jerr := json.Unmarshal(line, &ev); jerr != nil {
					return out, fmt.Errorf("bad NDJSON line %q: %w", line, jerr)
				}
				switch ev.Event {
				case "summary":
					out.status = ev.Run.CacheStatus
				case "error":
					return out, fmt.Errorf("run failed: %s", ev.Error)
				case "done":
					done = true
					if ev.Results != out.d.n {
						return out, fmt.Errorf("done event counts %d results, stream carried %d", ev.Results, out.d.n)
					}
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
	}
	if !done {
		return out, fmt.Errorf("stream ended without a done event")
	}
	return out, nil
}

func parseResult(rest []byte) (uint64, int64, error) {
	vs, tail, ok := bytes.Cut(rest, []byte(`,"value":`))
	if !ok {
		return 0, 0, fmt.Errorf("bad result record %q", rest)
	}
	v, err := strconv.ParseUint(string(vs), 10, 64)
	if err != nil {
		return 0, 0, err
	}
	val, err := strconv.ParseInt(string(bytes.TrimRight(tail, "}\n")), 10, 64)
	return v, val, err
}

// serveReq is one scheduled request: what the client intends (a repeat of an
// issued key, a fresh key, or an issued key on the next rung of the ladder)
// and the key itself.
type serveReq struct {
	intent string // "hit" | "miss" | "replay"
	rung   int
	alg    string // bfs | sssp
	source uint64
}

func (q serveReq) key() string { return fmt.Sprintf("%d/%s/%d", q.rung, q.alg, q.source) }

// ladder is the prefix ladder of collections: sim8 ⊂ sim12 ⊂ sim16 share
// their leading windows, so a run on the next rung extends a warm replica by
// its four-view suffix.
var ladder = []int{8, 12, 16}

func rungName(r int) string { return fmt.Sprintf("sim%d", ladder[r]) }

// cycle is the fixed request mix: of every 20 requests 12 repeat an issued
// key (cache hit), 5 ask for a fresh bfs/sssp source (miss) and 3 re-ask an
// issued key on the next rung (suffix replay). A fixed pattern rather than
// independent draws keeps every pass's composition identical.
var cycle = strings.Split("miss hit replay hit miss hit hit hit miss hit replay hit miss hit hit hit miss hit replay hit", " ")

// algNames are the algorithms fresh keys alternate between.
var algNames = []string{"bfs", "sssp"}

// schedule generates one client's requests. Which key a repeat picks is
// drawn from the client's seeded generator; the mix is the cycle.
type schedule struct {
	r       *rand.Rand
	sources []uint64 // this client's fresh sources, best-connected first
	next    int      // next fresh source
	at      int      // position in the cycle
	replays int      // replays scheduled so far
	issued  []serveReq
	climb   []serveReq // issued keys that still have a rung above them
}

func newSchedule(seed int64, client int, ranked []uint64) *schedule {
	s := &schedule{r: rand.New(rand.NewSource(seed*7919 + int64(client)))}
	for i := client; i < len(ranked); i += 2 {
		s.sources = append(s.sources, ranked[i]) // disjoint from the other client's
	}
	return s
}

func (s *schedule) nextReq() serveReq {
	intent := cycle[s.at%len(cycle)]
	s.at++
	var q serveReq
	switch {
	case intent == "hit" && len(s.issued) > 0:
		// One of the last 32 issued keys: recent enough to still be cached.
		lo := max(0, len(s.issued)-32)
		q = s.issued[lo+s.r.Intn(len(s.issued)-lo)]
		q.intent = "hit"
		return q
	case intent == "replay" && len(s.climb) > 0:
		// The most recent climbable key of the algorithm whose turn it is
		// (replays alternate bfs and sssp, which cost very differently), so
		// its replica is among the handful the server keeps warm.
		want := algNames[s.replays%2]
		s.replays++
		i := len(s.climb) - 1
		for j := i; j >= 0; j-- {
			if s.climb[j].alg == want {
				i = j
				break
			}
		}
		q = s.climb[i]
		s.climb = append(s.climb[:i], s.climb[i+1:]...)
		q.intent, q.rung = "replay", q.rung+1
	default:
		q = serveReq{intent: "miss", alg: algNames[s.next%2], source: s.sources[(s.next/2)%len(s.sources)]}
		s.next++
	}
	s.issued = append(s.issued, q)
	if q.rung+1 < len(ladder) {
		s.climb = append(s.climb, q)
	}
	return q
}

func (q serveReq) algo() *algo {
	a := &algo{name: q.alg, spec: analytics.Spec{Algorithm: q.alg, Source: q.source}}
	if q.alg == "sssp" {
		a.weight = "duration"
	}
	return a
}

type serveInst struct {
	sc      scale
	csv     *csvGraph
	eng     *core.Engine
	front   *frontend
	clients []*schedule
	load    time.Duration
	base    map[string]float64 // /metrics at the end of set-up

	mu    sync.Mutex
	seen  map[string]digest  // first digest served per key
	total map[string]float64 // cacheStatus stamps since set-up
}

func serveSetup(ctx context.Context, e env) (instance, error) {
	s := &serveInst{
		sc:    e.sc,
		csv:   temporalInput("temporal", e.seed, e.sc.sNodes, e.sc.sEdges, 1),
		seen:  map[string]digest{},
		total: map[string]float64{},
	}
	var err error
	if s.eng, err = core.NewEngine(core.Options{Workers: 1}); err != nil {
		return nil, err
	}
	if s.front, err = startFrontend(s.eng); err != nil {
		s.eng.Close()
		return nil, err
	}
	nodes, edges, err := s.csv.write(e.dir)
	if err != nil {
		s.close()
		return nil, err
	}
	t0 := time.Now()
	err = s.front.do(ctx, &server.Envelope{Load: &core.LoadGraphRequest{Name: graphName, NodesPath: nodes, EdgesPath: edges}})
	s.load = time.Since(t0)
	if err != nil {
		s.close()
		return nil, err
	}
	var src strings.Builder
	for r := range ladder {
		src.WriteString(collectionGVDL(rungName(r), graphName, expanding(ladder[r])))
	}
	if err := s.front.do(ctx, &server.Envelope{Statements: &core.StatementsRequest{Src: src.String()}}); err != nil {
		s.close()
		return nil, err
	}
	ranked := rankSources(s.csv.g, expanding(ladder[0]))
	for c := 0; c < 2; c++ {
		s.clients = append(s.clients, newSchedule(e.seed, c, ranked))
	}
	if s.base, err = s.front.metrics(ctx); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serveInst) close() {
	s.front.close()
	s.eng.Close()
}

func (s *serveInst) inputsHash() string { return s.csv.hash() }

// passesFor sizes the schedule: a pass of 120 requests takes about 1.5 s on
// the machine the first baseline was recorded on.
func (s *serveInst) passesFor(secs float64) int { return int(secs / 1.5) }

// pass is a closed loop: two clients, each sending its next scheduled
// request only after the previous reply has been read to the end.
func (s *serveInst) pass(ctx context.Context, r *recorder) {
	var wg sync.WaitGroup
	for _, cl := range s.clients {
		wg.Add(1)
		go func(cl *schedule) {
			defer wg.Done()
			for i := 0; i < s.sc.sRequests; i++ {
				s.request(ctx, r, cl.nextReq())
			}
		}(cl)
	}
	wg.Wait()
}

func (s *serveInst) request(ctx context.Context, r *recorder, q serveReq) {
	var out runOut
	t0 := time.Now()
	r.op("POST /v1/do "+q.intent, "", "server", func(int) error {
		var err error
		out, err = s.front.run(ctx, rungName(q.rung), q.algo(), core.DiffOnly)
		if err != nil {
			return err
		}
		// Whatever served it — execution, cache or replay — a key's answer
		// is the answer it had the first time.
		s.mu.Lock()
		defer s.mu.Unlock()
		s.total[out.status]++
		first, ok := s.seen[q.key()]
		if !ok {
			s.seen[q.key()] = out.d
		} else if first != out.d {
			return fmt.Errorf("%s served %s, first served %s", q.key(), out.d, first)
		}
		return nil
	})
	d := time.Since(t0)
	if out.status == "" {
		return
	}
	r.sample(out.status, millis(d))
	r.count(out.status, 1)
	if out.status == "hit" {
		r.count("hit_bytes", float64(out.bytes))
		r.count("hit_ns", float64(d))
	}
}

func (s *serveInst) layers(ctx context.Context, r *recorder, tp *passStats, _ time.Duration) map[string]float64 {
	vals := map[string]float64{"graph.load_s": s.load.Seconds()}
	for _, st := range []string{"hit", "miss", "dedup", "replay"} {
		vals["tenant."+st] = tp.counts[st]
	}
	vals["server.hit_p50_ms"] = median(tp.kinds["hit"])
	vals["server.miss_p50_ms"] = median(tp.kinds["miss"])
	vals["server.replay_p50_ms"] = median(tp.kinds["replay"])
	if ns := tp.counts["hit_ns"]; ns > 0 {
		vals["server.stream_mb_s"] = tp.counts["hit_bytes"] / 1e6 / (ns / 1e9)
	}
	// The server's own counters must tell the same story as the stamps.
	now, err := s.front.metrics(ctx)
	if err == nil {
		s.mu.Lock()
		for st, name := range map[string]string{
			"hit":    "graphsurge_tenant_cache_hits_total",
			"miss":   "graphsurge_tenant_cache_misses_total",
			"replay": "graphsurge_tenant_cache_replays_total",
		} {
			if got := now[name] - s.base[name]; got != s.total[st] {
				err = fmt.Errorf("/metrics counts %v %s since set-up, cacheStatus stamps count %v", got, st, s.total[st])
			}
		}
		s.mu.Unlock()
	}
	r.check("metrics scrape agrees with cacheStatus stamps", err)
	return vals
}

// verify checks the scheduled hit share and compares what the server
// streamed with from-scratch runs over standalone views of each rung's last
// window, for a few keys per rung.
func (s *serveInst) verify(ctx context.Context, r *recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	all := 0.0
	for _, n := range s.total {
		all += n
	}
	var err error
	if share := s.total["hit"] / all; share < 0.55 || share > 0.65 {
		err = fmt.Errorf("hit share %.3f is not within 0.05 of the scheduled 0.6 (%v)", share, s.total)
	}
	r.check("hit share", err)

	sess := s.eng.NewSession()
	for rung := range ladder {
		view := fmt.Sprintf("v%d", ladder[rung])
		w := expanding(ladder[rung])[ladder[rung]-1]
		r.check("create reference view", statements(ctx, sess, viewGVDL(view, graphName, w)))
		checked := 0
		for _, cl := range s.clients {
			for _, q := range cl.issued {
				if q.rung != rung || checked >= 4 {
					continue
				}
				got, ok := s.seen[q.key()]
				if !ok {
					continue
				}
				checked++
				ref, err := viewDigest(ctx, sess, view, q.algo())
				if err == nil && ref != got {
					err = fmt.Errorf("server streamed %s, a run over the last view gives %s", got, ref)
				}
				r.check("reference "+q.key(), err)
			}
		}
	}
}

// scheduleHash identifies the first n requests of both clients' schedules.
func scheduleHash(seed int64, sc scale, n int) string {
	g := temporalInput("temporal", seed, sc.sNodes, sc.sEdges, 1).g
	ranked := rankSources(g, expanding(ladder[0]))
	var parts []string
	for c := 0; c < 2; c++ {
		s := newSchedule(seed, c, ranked)
		for i := 0; i < n; i++ {
			q := s.nextReq()
			parts = append(parts, q.intent+" "+q.key())
		}
	}
	return hashStrings(parts...)
}
