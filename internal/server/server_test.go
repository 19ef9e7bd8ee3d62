package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/core"
	"graphsurge/internal/datagen"
	"graphsurge/internal/view"
)

// testEngine builds an engine holding a temporal graph and a k-view
// collection over it, created through GVDL so the server test exercises the
// same catalog the CLI would.
func testEngine(t *testing.T, k int) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 150, Edges: 1500, Days: 100, Seed: 7})
	g.Name = "g"
	if err := e.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("create view collection cc on g ")
	for i := 0; i < k; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "[v%d: ts < %d]", i, 100*(i+1)/k)
	}
	if _, err := e.ExecuteContext(context.Background(), sb.String()); err != nil {
		t.Fatal(err)
	}
	return e
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/do", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// event is the decoded union of the NDJSON stream records.
type event struct {
	Event   string             `json:"event"`
	Segment *core.SegmentStats `json:"segment"`
	Run     *json.RawMessage   `json:"run"`
	Vertex  uint64             `json:"vertex"`
	Value   int64              `json:"value"`
	Results int                `json:"results"`
	Error   string             `json:"error"`
}

func readEvents(t *testing.T, r *http.Response) []event {
	t.Helper()
	defer r.Body.Close()
	var out []event
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServeStatementsAndRunStream drives the HTTP API end to end:
// statements return typed results, a run streams segment events, a summary,
// sorted result records and a done marker — and the streamed values equal a
// direct engine run's.
func TestServeStatementsAndRunStream(t *testing.T) {
	const k = 6
	e := testEngine(t, k)
	ts := httptest.NewServer(New(e, Options{}).Handler())
	defer ts.Close()

	// Statements.
	resp := postJSON(t, ts.URL, `{"statements":{"src":"create view early on g edges where ts < 30"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statements status %d", resp.StatusCode)
	}
	var stmts struct {
		Results []struct {
			Kind   string          `json:"kind"`
			Text   string          `json:"text"`
			Result json.RawMessage `json:"result"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stmts); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(stmts.Results) != 1 || stmts.Results[0].Kind != "view" ||
		!strings.HasPrefix(stmts.Results[0].Text, "view early: ") {
		t.Fatalf("statement results = %+v", stmts.Results)
	}

	// Run, streamed.
	resp = postJSON(t, ts.URL, `{"run":{"collection":"cc","algorithm":{"algorithm":"wcc"},"options":{"mode":"scratch","parallelism":2,"schedule":"lpt"}}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("run content type %q", ct)
	}
	events := readEvents(t, resp)

	want, err := e.RunCollection(context.Background(), "cc", analytics.WCC{}, core.RunOptions{Mode: core.Scratch, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantSorted := core.SortedResults(want.FinalResults())

	var segments, results int
	var summary *json.RawMessage
	var done *event
	lastVertex := -1
	ri := 0
	for i := range events {
		ev := events[i]
		switch ev.Event {
		case "segment":
			segments++
			if summary != nil {
				t.Fatal("segment event after the summary")
			}
		case "summary":
			summary = ev.Run
		case "result":
			if int64(ev.Vertex) <= int64(lastVertex) {
				t.Fatalf("result vertices not ascending: %d after %d", ev.Vertex, lastVertex)
			}
			lastVertex = int(ev.Vertex)
			if ri >= len(wantSorted) || wantSorted[ri].V != ev.Vertex || wantSorted[ri].Val != ev.Value {
				t.Fatalf("result %d = (%d,%d), want (%d,%d)", ri, ev.Vertex, ev.Value, wantSorted[ri].V, wantSorted[ri].Val)
			}
			results++
			ri++
		case "done":
			done = &events[i]
		case "error":
			t.Fatalf("run streamed an error: %s", ev.Error)
		}
	}
	if segments != k {
		t.Fatalf("%d segment events, want %d (scratch: one per view)", segments, k)
	}
	if summary == nil {
		t.Fatal("no summary event")
	}
	var sum core.RunResult
	if err := json.Unmarshal(*summary, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Computation != "wcc" || sum.Collection != "cc" || len(sum.Stats) != k || sum.Mode != core.Scratch {
		t.Fatalf("summary = %+v", sum)
	}
	if done == nil || done.Results != results || results != len(wantSorted) {
		t.Fatalf("done=%v results=%d want %d", done, results, len(wantSorted))
	}
	if events[len(events)-1].Event != "done" {
		t.Fatalf("stream does not end with done: %s", events[len(events)-1].Event)
	}

	// Single-view run.
	resp = postJSON(t, ts.URL, `{"runView":{"view":"early","algorithm":{"algorithm":"degree"}}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("runView status %d", resp.StatusCode)
	}
	var vr struct {
		View struct {
			Computation string `json:"computation"`
			Edges       int    `json:"edges"`
		} `json:"view"`
		Results []struct {
			Vertex uint64 `json:"vertex"`
			Value  int64  `json:"value"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if vr.View.Computation != "degree" || vr.View.Edges == 0 || len(vr.Results) == 0 {
		t.Fatalf("runView response = %+v", vr)
	}

	// Pool stats — the run above left a quiescent wcc pool.
	resp = postJSON(t, ts.URL, `{"poolStats":{}}`)
	var ps core.PoolStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&ps); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ps.Pools) == 0 || ps.Pools[0].Live != 0 {
		t.Fatalf("pool stats = %+v", ps.Pools)
	}
}

// TestServeRequestValidation pins the error paths: malformed JSON, empty
// and ambiguous envelopes, unknown names.
func TestServeRequestValidation(t *testing.T) {
	e := testEngine(t, 2)
	ts := httptest.NewServer(New(e, Options{}).Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"malformed": `{"run":`,
		"empty":     `{}`,
		"ambiguous": `{"poolStats":{},"statements":{"src":"x"}}`,
		"unknown":   `{"bogus":{}}`,
		// Speculation is the engine's choice, no longer a run option.
		"speculate": `{"run":{"collection":"cc","algorithm":{"algorithm":"wcc"},"options":{"mode":"adaptive","parallelism":2,"speculate":true}}}`,
		// SCC builds the phases it needs; there is no phase count to set.
		"phases": `{"run":{"collection":"cc","algorithm":{"algorithm":"scc","phases":3}}}`,
	} {
		resp := postJSON(t, ts.URL, body)
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Error == "" {
			t.Fatalf("%s: status %d error %q", name, resp.StatusCode, e.Error)
		}
		if (name == "speculate" || name == "phases") && !strings.Contains(e.Error, `unknown field "`+name+`"`) {
			t.Fatalf("%s: error %q does not name the unknown field", name, e.Error)
		}
	}

	// A run over an unknown collection reports the error as an NDJSON error
	// event (the stream already started).
	resp := postJSON(t, ts.URL, `{"run":{"collection":"nope","algorithm":{"algorithm":"wcc"}}}`)
	events := readEvents(t, resp)
	if len(events) != 1 || events[0].Event != "error" || !strings.Contains(events[0].Error, "nope") {
		t.Fatalf("unknown-collection run events = %+v", events)
	}

	// A failing statement batch returns the completed prefix.
	resp = postJSON(t, ts.URL, `{"statements":{"src":"create view ok on g edges where ts < 10\ncreate view bad on missing edges where ts < 1"}}`)
	var partial struct {
		Error   string            `json:"error"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&partial); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || partial.Error == "" || len(partial.Results) != 1 {
		t.Fatalf("partial batch: status %d %+v", resp.StatusCode, partial)
	}
}

// blockingRunner parks every run until its ctx cancels — the deterministic
// probe for the server's cancellation plumbing.
type blockingRunner struct {
	entered chan struct{}
	done    chan error
}

func (r *blockingRunner) RunOn(ctx context.Context, _ *view.Collection, _ analytics.Computation, _ core.RunOptions) (*core.RunResult, error) {
	close(r.entered)
	<-ctx.Done()
	r.done <- ctx.Err()
	return nil, ctx.Err()
}

// TestServeCancelPropagates: cancelling the HTTP request cancels the run's
// ctx — the chain client → request context → Session.Do → runner holds.
func TestServeCancelPropagates(t *testing.T) {
	e := testEngine(t, 2)
	runner := &blockingRunner{entered: make(chan struct{}), done: make(chan error, 1)}
	ts := httptest.NewServer(New(e, Options{Runner: runner}).Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/do",
		bytes.NewReader([]byte(`{"run":{"collection":"cc","algorithm":{"algorithm":"wcc"}}}`)))
	if err != nil {
		t.Fatal(err)
	}
	go http.DefaultClient.Do(req) //nolint:errcheck // the request is expected to fail by cancellation
	select {
	case <-runner.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("run never started")
	}
	cancel()
	select {
	case err := <-runner.done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("runner ctx ended with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request cancellation did not reach the runner")
	}
}

// TestServeDisconnectQuiesces: a client that walks away mid-stream leaves
// no live replicas behind — the engine's pools return to quiescence and the
// engine serves the next request normally.
func TestServeDisconnectQuiesces(t *testing.T) {
	e := testEngine(t, 12)
	ts := httptest.NewServer(New(e, Options{}).Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL, `{"run":{"collection":"cc","algorithm":{"algorithm":"wcc"},"options":{"mode":"scratch"}}}`)
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no first event")
	}
	resp.Body.Close() // disconnect mid-run

	deadline := time.Now().Add(10 * time.Second)
	for {
		live := 0
		for _, ps := range e.PoolStats() {
			live += ps.Live
		}
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d replicas still live after client disconnect", live)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The engine still serves.
	resp = postJSON(t, ts.URL, `{"poolStats":{}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-disconnect status %d", resp.StatusCode)
	}
	resp.Body.Close()
}
