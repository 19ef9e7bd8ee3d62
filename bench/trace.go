package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans are recorded by the benchmark's own
// files around the calls into the program (workload → pass → op) plus leaf
// spans laid out from durations the program's public return values report
// (segment setup/drain, collection timings); nothing inside the program is
// instrumented here.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = a root
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"startNs"` // since the tracer's epoch
	End    int64  `json:"endNs"`
	// Reported marks a leaf whose duration the program reported and whose
	// position inside its parent the benchmark assigned.
	Reported bool `json:"reported,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced passes run.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) start(parent int, name, layer string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// reported adds leaf spans under parent for durations the program reported
// for work it ran on up to lanes replicas at once: each leaf goes to the lane
// that frees first, starting at the parent's start — the order a FIFO
// dispatcher would produce. Leaves are clipped to the parent by selfTimes.
func (t *tracer) reported(parent int, lanes int, leaves []leaf) {
	if t == nil || parent == 0 {
		return
	}
	if lanes < 1 {
		lanes = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	free := make([]int64, lanes)
	for i := range free {
		free[i] = t.spans[parent-1].Start
	}
	for _, lf := range leaves {
		l := 0
		for i := range free {
			if free[i] < free[l] {
				l = i
			}
		}
		for _, part := range lf {
			id := len(t.spans) + 1
			t.spans = append(t.spans, span{ID: id, Parent: parent, Name: part.name, Layer: part.layer,
				Start: free[l], End: free[l] + int64(part.d), Reported: true})
			free[l] += int64(part.d)
		}
	}
}

// leaf is one unit of reported work — consecutive parts on one lane.
type leaf []leafPart

type leafPart struct {
	name, layer string
	d           time.Duration
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of that interval its
// child spans cover (children clipped to the parent, overlaps counted once).
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][][2]int64)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{lo, hi})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, end := int64(0), s.Start
		for _, k := range iv {
			if k[1] <= end {
				continue
			}
			covered += k[1] - max(k[0], end)
			end = k[1]
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Layer] += time.Duration(self[s.ID])
	}
	return out
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
