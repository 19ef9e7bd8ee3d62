package view

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"graphsurge/internal/graph"
	"graphsurge/internal/gvdl"
)

// The paper's View Store persists materialized views alongside the graph
// store ("The output of the program is materialized as a stream in the View
// Store"). A collection is stored as <name>.collection.gob: its name, order
// and difference stream. A filtered view is stored as the one-view
// collection it is. An aggregate view is stored as its defining GVDL
// statement, <name>.aggregate.gvdl, which is re-evaluated on load.

// ErrInvalidName marks a view/collection name the store refuses to join
// into a path. Callers with a fallback (the engine's target resolution
// tries the graph store next) branch on it with errors.Is: an invalid name
// can never correspond to a stored view, so for lookup it means absence,
// not failure.
var ErrInvalidName = errors.New("invalid name")

// ErrStale marks a persisted view or collection whose recorded base-graph
// version no longer matches the graph's: the graph mutated while this
// artifact was not being maintained (for example, mutations applied through
// a store the view layer never saw). Serving it would silently mix
// versions, so loads fail closed; re-create the artifact to clear it.
var ErrStale = errors.New("stale artifact")

// validName rejects view/collection names that could escape the data
// directory when joined into a path: empty names, the dot paths "." and
// "..", and names containing either flavor of path separator (both are
// rejected on every OS so persisted data stays portable). Checked on both
// save and load — a crafted name must fail no matter which side sees it
// first (`run -view '../x'` must not read outside the data directory).
func validName(name string) error {
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, `/\`) {
		return fmt.Errorf("view: %w %q: must be non-empty and contain no path separators", ErrInvalidName, name)
	}
	return nil
}

// collectionGob is the on-disk form of a materialized collection: the
// difference stream is the compact representation the paper materializes.
type collectionGob struct {
	Name  string
	Base  string
	Order []int
	Names []string
	Adds  [][]uint32
	Dels  [][]uint32
	EBMs  int // number of views, for validation
	// Maintenance metadata; zero-valued in pre-mutation files.
	PredSrcs []string
	On       string
	Version  uint64
}

// SaveCollection persists a materialized collection's difference stream,
// replacing any earlier file of the name atomically. The EBM is not
// persisted: LoadCollection derives it from the stream.
func SaveCollection(dir string, c *Collection) error {
	if err := validName(c.Name); err != nil {
		return err
	}
	if c.Graph == nil || c.Graph.Name == "" {
		return fmt.Errorf("view: cannot persist collection %q without a named base graph", c.Name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cg := collectionGob{
		Name:     c.Name,
		Base:     c.Graph.Name,
		Order:    c.Order,
		Names:    c.Stream.Names,
		Adds:     c.Stream.Adds,
		Dels:     c.Stream.Dels,
		EBMs:     c.Stream.NumViews(),
		PredSrcs: c.PredSrcs,
		On:       c.On,
		Version:  c.Version,
	}
	return graph.WriteFileAtomic(filepath.Join(dir, c.Name+".collection.gob"), func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(cg)
	})
}

// SaveAggregate persists an aggregate view as its statement's String() form,
// replacing any earlier file atomically. It records no graph version: the
// statement is evaluated on load, so the file cannot go stale.
func SaveAggregate(dir string, stmt *gvdl.CreateAggView) error {
	if err := validName(stmt.Name); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return graph.WriteFileAtomic(filepath.Join(dir, stmt.Name+".aggregate.gvdl"), func(w io.Writer) error {
		_, err := io.WriteString(w, stmt.String()+"\n")
		return err
	})
}

// LoadAggregate reads back a persisted aggregate view's statement.
func LoadAggregate(dir, name string) (*gvdl.CreateAggView, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	src, err := os.ReadFile(filepath.Join(dir, name+".aggregate.gvdl"))
	if err != nil {
		return nil, err
	}
	s, err := gvdl.Parse(string(src))
	if stmt, ok := s.(*gvdl.CreateAggView); ok && stmt.Name == name {
		return stmt, nil
	}
	if err == nil {
		err = fmt.Errorf("file holds %q", s)
	}
	return nil, fmt.Errorf("view: aggregate view %q is corrupt: %w", name, err)
}

// LoadCollection loads a persisted collection and rebuilds its EBM from the
// stream. A file whose order or stream the rebuild rejects is corrupt.
func LoadCollection(dir, name string, lookup func(string) (*graph.Graph, error)) (*Collection, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	file, err := os.Open(filepath.Join(dir, name+".collection.gob"))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			// A leftover of the retired single-view file format is a load
			// failure, never absence: the name was defined and must not
			// silently vanish.
			if _, lerr := os.Stat(filepath.Join(dir, name+".view.gob")); lerr == nil {
				return nil, fmt.Errorf("view %q: stored in the retired single-view file format; re-create the view", name)
			}
		}
		return nil, err
	}
	defer file.Close()
	var cg collectionGob
	if err := gob.NewDecoder(file).Decode(&cg); err != nil {
		return nil, fmt.Errorf("view: loading collection %q: %w", name, err)
	}
	base, err := lookup(cg.Base)
	if err != nil {
		return nil, fmt.Errorf("collection %q: %w", name, err)
	}
	if cg.Version != base.Version {
		return nil, fmt.Errorf("collection %q: %w: reflects graph %s at version %d, graph is at %d",
			name, ErrStale, base.Name, cg.Version, base.Version)
	}
	c := &Collection{
		Name:     cg.Name,
		Graph:    base,
		Order:    cg.Order,
		Stream:   &DiffStream{Names: cg.Names, Adds: cg.Adds, Dels: cg.Dels},
		PredSrcs: cg.PredSrcs,
		On:       cg.On,
		Version:  cg.Version,
	}
	if len(cg.Names) != cg.EBMs {
		err = fmt.Errorf("%d view names, want %d", len(cg.Names), cg.EBMs)
	} else {
		c.EBM, err = rebuildEBM(base.NumEdges(), cg.Order, c.Stream)
	}
	if err != nil {
		return nil, fmt.Errorf("view: collection %q is corrupt: %w", name, err)
	}
	return c, nil
}
