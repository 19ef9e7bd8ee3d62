package graph

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// insertFor builds an EdgeInsert matching the Fig. 1 graph's edge schema
// (duration:int, year:int).
func insertFor(src, dst uint64, duration, year int64) EdgeInsert {
	return EdgeInsert{Src: src, Dst: dst, Props: map[string]Value{
		"duration": IntValue(duration),
		"year":     IntValue(year),
	}}
}

func TestApplyMutationInsertDelete(t *testing.T) {
	g := loadFig1(t)
	prevEdges := g.NumEdges()
	mb, err := NewMutationBatch(g,
		[]EdgeInsert{insertFor(2, 0, 5, 2020), insertFor(0, 4, 9, 2021)},
		[]EdgePair{{Src: 0, Dst: 1}}, // Fig.1 edge 1->2 is internal 0->1
	)
	if err != nil {
		t.Fatal(err)
	}
	a, err := g.ApplyMutation(mb)
	if err != nil {
		t.Fatal(err)
	}
	if a.Version != 1 || g.Version != 1 {
		t.Fatalf("version = %d/%d, want 1", a.Version, g.Version)
	}
	if a.PrevEdges != prevEdges || a.Inserted != 2 {
		t.Fatalf("applied = %+v", a)
	}
	if len(a.Deleted) != 1 {
		t.Fatalf("deleted = %v", a.Deleted)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != prevEdges+2 || g.LiveEdges() != prevEdges+1 {
		t.Fatalf("edges = %d live %d", g.NumEdges(), g.LiveEdges())
	}
	if g.EdgeAlive(int(a.Deleted[0])) {
		t.Fatal("deleted edge still alive")
	}
	// Tombstoned rows keep their data so index-based consumers still project.
	if tr := g.Triple(int(a.Deleted[0]), -1); tr.Src != 0 || tr.Dst != 1 {
		t.Fatalf("tombstoned triple = %+v", tr)
	}
	// Inserted rows land appended, sorted by (Src, Dst), with property rows.
	wc, err := g.WeightColumn("duration")
	if err != nil {
		t.Fatal(err)
	}
	first := g.Triple(prevEdges, wc)
	second := g.Triple(prevEdges+1, wc)
	if first.Src != 0 || first.Dst != 4 || first.W != 9 {
		t.Fatalf("first inserted = %+v", first)
	}
	if second.Src != 2 || second.Dst != 0 || second.W != 5 {
		t.Fatalf("second inserted = %+v", second)
	}
}

func TestApplyMutationRejectsBadBatches(t *testing.T) {
	g := loadFig1(t)
	cases := []struct {
		name string
		ins  []EdgeInsert
		dels []EdgePair
	}{
		{"empty", nil, nil},
		{"endpoint out of range", []EdgeInsert{insertFor(0, 99, 1, 2020)}, nil},
		{"missing property", []EdgeInsert{{Src: 0, Dst: 1, Props: map[string]Value{"duration": IntValue(1)}}}, nil},
		{"unknown property", []EdgeInsert{{Src: 0, Dst: 1, Props: map[string]Value{"duration": IntValue(1), "nope": IntValue(2)}}}, nil},
		{"wrong property type", []EdgeInsert{{Src: 0, Dst: 1, Props: map[string]Value{"duration": StringValue("x"), "year": IntValue(1)}}}, nil},
		{"delete matches nothing", nil, []EdgePair{{Src: 7, Dst: 0}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mb, err := NewMutationBatch(g, c.ins, c.dels)
			if err == nil {
				_, err = g.ApplyMutation(mb)
			}
			if !errors.Is(err, ErrMutation) {
				t.Fatalf("err = %v, want ErrMutation", err)
			}
			if g.Version != 0 {
				t.Fatal("rejected batch bumped the version")
			}
		})
	}
}

func TestApplyMutationDeletesParallelEdges(t *testing.T) {
	g := &Graph{Name: "p", NumNodes: 2, Srcs: []uint64{0, 0, 1}, Dsts: []uint64{1, 1, 0}}
	mb, err := NewMutationBatch(g, nil, []EdgePair{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := g.ApplyMutation(mb)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Deleted) != 2 || g.LiveEdges() != 1 {
		t.Fatalf("deleted %v, live %d", a.Deleted, g.LiveEdges())
	}
	// A second delete of the same pair finds no live edge left.
	if _, err := g.ApplyMutation(mb); !errors.Is(err, ErrMutation) {
		t.Fatalf("re-delete err = %v", err)
	}
}

// TestStoreJournalReplay pins the restart contract: a store re-opened over
// the same directory replays journaled mutations and serves the exact
// post-mutation graph — same version, same edge indices, same tombstones.
func TestStoreJournalReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Add(loadFig1(t)); err != nil {
		t.Fatal(err)
	}
	g, _ := st.Graph("Calls")
	mb1, err := NewMutationBatch(g, []EdgeInsert{insertFor(2, 0, 5, 2020)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyMutation("Calls", mb1); err != nil {
		t.Fatal(err)
	}
	mb2, err := NewMutationBatch(g, nil, []EdgePair{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := st.ApplyMutation("Calls", mb2)
	if err != nil {
		t.Fatal(err)
	}

	st2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := st2.Graph("Calls")
	if err != nil {
		t.Fatal(err)
	}
	if g2.Version != 2 || g2.NumEdges() != g.NumEdges() || g2.LiveEdges() != g.LiveEdges() {
		t.Fatalf("replayed version %d edges %d live %d, want %d/%d/%d",
			g2.Version, g2.NumEdges(), g2.LiveEdges(), g.Version, g.NumEdges(), g.LiveEdges())
	}
	for _, d := range a2.Deleted {
		if g2.EdgeAlive(int(d)) {
			t.Fatalf("edge %d alive after replay", d)
		}
	}

	// Re-adding the graph snapshots fresh state and truncates the journal.
	if err := st2.Add(g2); err != nil {
		t.Fatal(err)
	}
	st3, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	g3, err := st3.Graph("Calls")
	if err != nil {
		t.Fatal(err)
	}
	if g3.Version != 2 || g3.LiveEdges() != g2.LiveEdges() {
		t.Fatalf("post-snapshot version %d live %d", g3.Version, g3.LiveEdges())
	}
}

// TestStoreFailsClosedOnCorruption pins satellite behavior: a snapshot or
// journal that fails integrity checks surfaces ErrCorruptGraph instead of
// being masked as "no graph named".
func TestStoreFailsClosedOnCorruption(t *testing.T) {
	t.Run("corrupt snapshot", func(t *testing.T) {
		dir := t.TempDir()
		st, _ := NewStore(dir)
		if err := st.Add(loadFig1(t)); err != nil {
			t.Fatal(err)
		}
		p, _ := st.path("Calls")
		if err := os.WriteFile(p, []byte("not a gob stream"), 0o644); err != nil {
			t.Fatal(err)
		}
		st2, _ := NewStore(dir)
		if _, err := st2.Graph("Calls"); !errors.Is(err, ErrCorruptGraph) {
			t.Fatalf("err = %v, want ErrCorruptGraph", err)
		}
	})
	t.Run("truncated journal", func(t *testing.T) {
		// A cut anywhere in a new journal's only frame, header included, is
		// a torn tail, not corruption: the graph loads at the snapshot's
		// version. Damage with bytes after it fails closed
		// (TestJournalMidFrameDamageFailsClosed).
		dir, jp := journaled(t, 1)
		data, err := os.ReadFile(jp)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 1; cut < len(data); cut++ {
			if err := os.WriteFile(jp, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			st2, _ := NewStore(dir)
			if g, err := st2.Graph("Calls"); err != nil || g.Version != 0 {
				t.Fatalf("single-frame journal cut at %d: %v", cut, err)
			}
		}
	})
	t.Run("missing stays not-found", func(t *testing.T) {
		st, _ := NewStore(t.TempDir())
		if _, err := st.Graph("ghost"); err == nil || errors.Is(err, ErrCorruptGraph) {
			t.Fatalf("err = %v, want plain not-found", err)
		}
	})
}

func TestEdgeAliveDefaults(t *testing.T) {
	g := &Graph{Name: "g", NumNodes: 2, Srcs: []uint64{0, 1}, Dsts: []uint64{1, 0}}
	for i := 0; i < g.NumEdges(); i++ {
		if !g.EdgeAlive(i) {
			t.Fatalf("edge %d dead with nil bitmap", i)
		}
	}
	if g.LiveEdges() != 2 {
		t.Fatalf("LiveEdges = %d", g.LiveEdges())
	}
}

// journaled returns a store directory holding the Fig. 1 graph with n
// journaled single-insert batches (versions 1..n), and the journal's path.
func journaled(t *testing.T, n int) (dir, jp string) {
	t.Helper()
	dir = t.TempDir()
	st, _ := NewStore(dir)
	if err := st.Add(loadFig1(t)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		mutate(t, st, uint64(i%3))
	}
	jp, _ = st.journalPath("Calls")
	return dir, jp
}

// mutate journals and commits one insert of src->0 on the store's graph.
func mutate(t *testing.T, st *Store, src uint64) {
	t.Helper()
	g, err := st.Graph("Calls")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewMutationBatch(g, []EdgeInsert{insertFor(src, 0, 5, 2020)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyMutation("Calls", mb); err != nil {
		t.Fatal(err)
	}
}

// frameStarts returns the offset of every frame of a current-format journal.
func frameStarts(t *testing.T, data []byte) []int {
	t.Helper()
	if !bytes.HasPrefix(data, []byte(journalMagic)) {
		t.Fatal("journal does not open with the header")
	}
	var starts []int
	for off := len(journalMagic); off < len(data); {
		_, next, err := readFrame(data, off)
		if err != nil {
			t.Fatalf("frame at %d: %v", off, err)
		}
		starts, off = append(starts, off), next
	}
	return starts
}

// TestJournalTornTail cuts a three-frame journal at every byte offset of its
// last frame, as a crash during that append would: the graph must load at
// version 2 with the torn bytes cut off the file, and the next mutation must
// append cleanly and survive a further reload.
func TestJournalTornTail(t *testing.T) {
	dir, jp := journaled(t, 3)
	full, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	starts := frameStarts(t, full)
	if len(starts) != 3 {
		t.Fatalf("%d frames, want 3", len(starts))
	}
	last := starts[2]
	for cut := last; cut < len(full); cut++ {
		if err := os.WriteFile(jp, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, _ := NewStore(dir)
		g, err := st.Graph("Calls")
		if err != nil || g.Version != 2 {
			t.Fatalf("cut at %d (frame at %d): err %v", cut, last, err)
		}
		if fi, err := os.Stat(jp); err != nil || fi.Size() != int64(last) {
			t.Fatalf("cut at %d: torn tail not removed from the file: %v", cut, err)
		}
		mutate(t, st, 1)
		st2, _ := NewStore(dir)
		if g, err := st2.Graph("Calls"); err != nil || g.Version != 3 {
			t.Fatalf("cut at %d: append after recovery did not reload: %v", cut, err)
		}
	}
	// A whole final frame whose payload fails its checksum is torn too.
	damaged := bytes.Clone(full)
	damaged[len(damaged)-1] ^= 0xff
	if err := os.WriteFile(jp, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	st, _ := NewStore(dir)
	if g, err := st.Graph("Calls"); err != nil || g.Version != 2 {
		t.Fatalf("damaged final payload: err %v", err)
	}
	// A crash that persisted the file's new length but not its data leaves
	// zeros: after the last whole frame, in place of the last frame, or
	// after its header.
	zeroed := func(b []byte, n int) []byte { return append(bytes.Clone(b), make([]byte, n)...) }
	lastNonzero := len(full) - 1 // cutting here loses payload bytes
	for full[lastNonzero] == 0 {
		lastNonzero--
	}
	for _, c := range []struct {
		name    string
		data    []byte
		version uint64
		size    int
	}{
		{"zeros after the last frame", zeroed(full, 40), 3, len(full)},
		{"last frame zeroed", zeroed(full[:last], len(full)-last), 2, last},
		{"payload zeroed", zeroed(full[:last+frameHeader], len(full)-last-frameHeader), 2, last},
		{"payload torn, then zeros", zeroed(full[:lastNonzero], 30), 2, last},
	} {
		if err := os.WriteFile(jp, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, _ := NewStore(dir)
		if g, err := st.Graph("Calls"); err != nil || g.Version != c.version {
			t.Fatalf("%s: err %v", c.name, err)
		}
		if fi, err := os.Stat(jp); err != nil || fi.Size() != int64(c.size) {
			t.Fatalf("%s: zero tail not cut to %d bytes: %v", c.name, c.size, err)
		}
	}
}

// TestConcurrentColdLoadsShareOneGraph: loads run outside the store lock, so
// concurrent first lookups of a graph with a torn journal may each replay
// it; exactly one result is registered and returned to all of them, and the
// journal ends cut at the last whole frame.
func TestConcurrentColdLoadsShareOneGraph(t *testing.T) {
	dir, jp := journaled(t, 3)
	full, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	last := frameStarts(t, full)[2]
	if err := os.WriteFile(jp, full[:len(full)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	st, _ := NewStore(dir)
	const loaders = 8
	got := make([]*Graph, loaders)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = st.Graph("Calls")
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g == nil || g != got[0] || g.Version != 2 {
			t.Fatalf("loader %d got %p, loader 0 %p", i, g, got[0])
		}
	}
	if fi, err := os.Stat(jp); err != nil || fi.Size() != int64(last) {
		t.Fatalf("torn tail not cut: %v", err)
	}
}

// TestJournalMidFrameDamageFailsClosed flips one bit in every byte before a
// three-frame journal's last frame: damage with more bytes after it is
// never mistaken for a torn tail, so every load fails closed and leaves the
// file as it found it.
func TestJournalMidFrameDamageFailsClosed(t *testing.T) {
	dir, jp := journaled(t, 3)
	full, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	last := frameStarts(t, full)[2]
	for i := 0; i < last; i++ {
		flipped := bytes.Clone(full)
		flipped[i] ^= 1 << (i % 8)
		if err := os.WriteFile(jp, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		st, _ := NewStore(dir)
		if _, err := st.Graph("Calls"); !errors.Is(err, ErrCorruptGraph) {
			t.Fatalf("bit flip at byte %d of %d: err = %v, want ErrCorruptGraph", i, len(full), err)
		}
		if after, _ := os.ReadFile(jp); !bytes.Equal(after, flipped) {
			t.Fatalf("bit flip at byte %d: a failed load rewrote the journal", i)
		}
	}
}

// TestLegacyJournalReplays: a headerless journal written by an earlier build
// (uvarint length, gob payload, no checksum) still replays, the load rewrites
// it in the current format, and appends and reloads continue from there.
func TestLegacyJournalReplays(t *testing.T) {
	dir := t.TempDir()
	st, _ := NewStore(dir)
	if err := st.Add(loadFig1(t)); err != nil {
		t.Fatal(err)
	}
	g, _ := st.Graph("Calls")
	var legacy []byte
	for _, src := range []uint64{0, 1} {
		mb, err := NewMutationBatch(g, []EdgeInsert{insertFor(src, 0, 5, 2020)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(mb); err != nil {
			t.Fatal(err)
		}
		legacy = append(binary.AppendUvarint(legacy, uint64(payload.Len())), payload.Bytes()...)
		if _, err := g.ApplyMutation(mb); err != nil {
			t.Fatal(err)
		}
	}
	jp, _ := st.journalPath("Calls")
	if err := os.WriteFile(jp, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, _ := NewStore(dir)
	if g, err := st2.Graph("Calls"); err != nil || g.Version != 2 {
		t.Fatalf("legacy journal: err %v", err)
	}
	data, _ := os.ReadFile(jp)
	if n := len(frameStarts(t, data)); n != 2 {
		t.Fatalf("rewritten journal holds %d frames, want 2", n)
	}
	mutate(t, st2, 2)
	st3, _ := NewStore(dir)
	if g, err := st3.Graph("Calls"); err != nil || g.Version != 3 {
		t.Fatalf("legacy journal after append: err %v", err)
	}
}

// TestWriteFileAtomic: a failed write leaves the previous file intact and no
// temporary behind; a successful one replaces it, and at no point does a
// name ending in a catalog suffix appear that is not the target.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.collection.gob")
	write := func(b string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, b)
			return err
		}
	}
	if err := WriteFileAtomic(path, write("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("encoder failed")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		ents, _ := os.ReadDir(dir)
		for _, e := range ents {
			if e.Name() != "c.collection.gob" && strings.HasSuffix(e.Name(), ".collection.gob") {
				t.Errorf("temporary %q carries the catalog suffix", e.Name())
			}
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the write's error", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "old" {
		t.Fatalf("failed write left %q", b)
	}
	if err := WriteFileAtomic(path, write("new")); err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 || ents[0].Name() != "c.collection.gob" {
		t.Fatalf("directory holds %v, want only the target", ents)
	}
	if b, _ := os.ReadFile(path); string(b) != "new" {
		t.Fatalf("replaced file holds %q", b)
	}
}
