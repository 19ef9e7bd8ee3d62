package graph

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrCorruptGraph marks a persisted graph that failed integrity checks on
// load — a snapshot that does not pass Validate, or a mutation journal with
// truncated or undecodable frames. The store fails closed: a corrupt graph
// is never served into seed materialization.
var ErrCorruptGraph = errors.New("graph: corrupt persisted graph")

// Store is Graphsurge's Graph Store: a catalog of named base graphs with
// optional binary persistence (the paper persists loaded edge streams in
// files). A Store with an empty directory is memory-only.
//
// Mutations persist as a journal next to the snapshot: each applied
// MutationBatch appends one checksummed gob frame to <name>.mutations.gob,
// and load replays the journal over the snapshot, so restarts recover the
// exact post-mutation graph (same version, same edge indices) without
// rewriting the snapshot on every batch. Re-adding a graph writes a fresh
// snapshot (through WriteFileAtomic, so a crash leaves the old one or the
// new one) and truncates its journal.
type Store struct {
	mu     sync.RWMutex
	dir    string
	graphs map[string]*Graph
}

// NewStore creates a store. If dir is non-empty it is created and used for
// persistence.
func NewStore(dir string) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return &Store{dir: dir, graphs: make(map[string]*Graph)}, nil
}

// Add registers a graph under its name, persisting it if the store has a
// directory. Re-adding a name replaces the previous graph. Persistence
// happens before registration so a failed persist (unwritable directory,
// name the disk layer rejects) never leaves a phantom in-memory graph the
// caller was told failed.
func (s *Store) Add(g *Graph) error {
	if g.Name == "" {
		return fmt.Errorf("graph: cannot store unnamed graph")
	}
	if err := g.Validate(); err != nil {
		return err
	}
	if s.dir != "" {
		if err := s.persist(g); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.graphs[g.Name] = g
	s.mu.Unlock()
	return nil
}

// Graph looks a graph up by name, falling back to disk when persisted. A
// missing graph (in memory and on disk) reports a not-found error; a graph
// that exists on disk but fails to load or validate reports that failure —
// wrapped in ErrCorruptGraph for integrity violations — instead of
// masquerading as not-found.
func (s *Store) Graph(name string) (*Graph, error) {
	s.mu.RLock()
	g, ok := s.graphs[name]
	s.mu.RUnlock()
	if ok {
		return g, nil
	}
	if s.dir != "" {
		// Load without the lock, so a cold load of a large graph stalls
		// neither lookups of loaded graphs nor mutations of other ones.
		g, fix, err := s.load(name)
		switch {
		case err == nil:
			return s.register(name, g, fix)
		case !errors.Is(err, os.ErrNotExist):
			return nil, err
		}
	}
	return nil, fmt.Errorf("graph: no graph named %q", name)
}

// register publishes a graph loaded from disk, first rewriting its journal
// to fix when the load found it needs a repair (non-nil fix). Both happen
// under the lock: the repair must not race an append to the same journal,
// and every caller shares the one *Graph registered here — if another
// loader registered the name first, its graph is returned and this one is
// discarded unrepaired.
func (s *Store) register(name string, g *Graph, fix []byte) (*Graph, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.graphs[name]; ok {
		return prev, nil
	}
	if fix != nil {
		jp, err := s.journalPath(name)
		if err == nil {
			err = WriteFileAtomic(jp, func(w io.Writer) error {
				_, err := w.Write(fix)
				return err
			})
		}
		if err != nil {
			return nil, fmt.Errorf("graph: repairing journal for %q: %w", name, err)
		}
	}
	s.graphs[name] = g
	return g, nil
}

// ApplyMutation validates a batch against a named graph, journals it, and
// commits it in memory, returning the applied effect. The order is
// plan → persist → commit: a batch that fails validation or journaling
// changes nothing anywhere, and a journaled batch is always the one that
// committed, so restart replay converges on the in-memory state.
//
// The store serializes mutations; concurrent readers of the *Graph are the
// engine's concern (it quiesces runs around mutations).
func (s *Store) ApplyMutation(name string, mb *MutationBatch) (Applied, error) {
	g, err := s.Graph(name)
	if err != nil {
		return Applied{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, err := mb.plan(g)
	if err != nil {
		return Applied{}, err
	}
	if s.dir != "" {
		if err := s.appendJournal(name, mb); err != nil {
			return Applied{}, err
		}
	}
	return p.commit(g), nil
}

// Names lists stored graph names in sorted order.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.graphs))
	for n := range s.graphs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// path validates that name stays inside the store directory when joined
// into a disk path. Unlike the view store, slash-separated subdirectory
// names are allowed — they have always been functional for graphs — but
// the joined path must remain under dir: ".." traversal escapes it, and
// backslashes are rejected for portability (a literal filename character
// on Unix becomes a separator on Windows). In-memory registration and
// lookup are unaffected; only the disk fallback refuses such names.
func (s *Store) path(name string) (string, error) { return s.pathFor(name, ".graph.gob") }

// journalPath is the mutation journal location for a graph name.
func (s *Store) journalPath(name string) (string, error) { return s.pathFor(name, ".mutations.gob") }

func (s *Store) pathFor(name, suffix string) (string, error) {
	if strings.Contains(name, `\`) {
		return "", fmt.Errorf("graph: invalid name %q: contains a path separator", name)
	}
	p := filepath.Join(s.dir, name+suffix)
	rel, err := filepath.Rel(s.dir, p)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("graph: invalid name %q: escapes the store directory", name)
	}
	return p, nil
}

func (s *Store) persist(g *Graph) error {
	path, err := s.path(g.Name)
	if err != nil {
		return err
	}
	if err := WriteFileAtomic(path, func(w io.Writer) error { return gob.NewEncoder(w).Encode(g) }); err != nil {
		return fmt.Errorf("graph: persisting %q: %w", g.Name, err)
	}
	// A fresh snapshot is a new journal epoch: drop any frames from the
	// graph previously stored under this name.
	jp, err := s.journalPath(g.Name)
	if err != nil {
		return err
	}
	if err := os.Remove(jp); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("graph: truncating journal for %q: %w", g.Name, err)
	}
	return nil
}

// WriteFileAtomic replaces path with what write produces: the bytes go to a
// temporary file in the same directory, renamed over path only once write
// and Close succeed, so a crash or failure mid-write leaves the previous file
// (or none), never a torn one. The temporary name ends in ".tmp", never in a
// suffix a directory scan enumerates (".collection.gob"), so one a crash
// leaves behind is ignored. Nothing is fsynced: the replacement is atomic,
// not yet durable.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	err = f.Chmod(0o644) // CreateTemp's 0600 would narrow what os.Create made
	if err == nil {
		err = write(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// The journal format: journalMagic, then one frame per mutation batch — a
// frameHeader-byte header (payload length, the payload's CRC-32, and a CRC-32
// of those eight bytes, so a damaged length is caught before it is trusted
// to find the next frame) followed by the gob-encoded batch. The magic's
// first byte is zero, which never opens a journal of the earlier headerless
// format (a uvarint payload length, never zero, then the payload): such
// journals still replay, without checksums, and the load that replays one
// rewrites it in the current format.
const (
	journalMagic = "\x00gsj1"
	frameHeader  = 12
)

// errTornTail marks a damaged frame with nothing but zeros after it: the
// normal result of a crash during an append, recovered by cutting the frame
// off.
var errTornTail = errors.New("torn final frame")

// appendFrame appends one journal frame carrying payload to buf.
func appendFrame(buf, payload []byte) []byte {
	var h [frameHeader]byte
	binary.LittleEndian.PutUint32(h[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(h[8:], crc32.ChecksumIEEE(h[:8]))
	return append(append(buf, h[:]...), payload...)
}

// readFrame returns the payload of the frame at data[off:] and the offset
// after it. A frame cut short by the end of data is errTornTail, and so is a
// frame failing a checksum with nothing but zero bytes after the part that
// failed — what a crash leaves when the file's new length persisted before
// its data. No frame hides in zeros (a header's own checksum is never zero
// over zeros), so nothing committed is lost. Any other damage is corruption.
func readFrame(data []byte, off int) ([]byte, int, error) {
	rest := data[off:]
	if len(rest) < frameHeader {
		return nil, 0, errTornTail
	}
	h := rest[:frameHeader]
	if crc32.ChecksumIEEE(h[:8]) != binary.LittleEndian.Uint32(h[8:]) {
		if zeros(rest[frameHeader:]) {
			return nil, 0, errTornTail
		}
		return nil, 0, errors.New("frame header checksum mismatch")
	}
	n := int(binary.LittleEndian.Uint32(h[0:]))
	if n > len(rest)-frameHeader {
		return nil, 0, errTornTail
	}
	end := off + frameHeader + n
	payload := data[off+frameHeader : end]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(h[4:]) {
		if zeros(data[end:]) {
			return nil, 0, errTornTail
		}
		return nil, 0, errors.New("frame checksum mismatch")
	}
	return payload, end, nil
}

// zeros reports whether every byte of b is zero.
func zeros(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// readLegacyFrame reads a frame of the headerless format: a uvarint payload
// length, then the payload. With no checksum to tell a torn tail from
// damage, every short frame is corruption.
func readLegacyFrame(data []byte, off int) ([]byte, int, error) {
	n, k := binary.Uvarint(data[off:])
	if k <= 0 || n > uint64(len(data)-off-k) {
		return nil, 0, errors.New("truncated frame")
	}
	start := off + k
	return data[start : start+int(n)], start + int(n), nil
}

// appendJournal writes one mutation frame, opening a new journal with
// journalMagic. Every journal it appends to is in the current format: a
// snapshot write removes the old journal, and the load that registers a
// graph rewrites a headerless one.
func (s *Store) appendJournal(name string, mb *MutationBatch) error {
	jp, err := s.journalPath(name)
	if err != nil {
		return err
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(mb); err != nil {
		return fmt.Errorf("graph: journaling mutation for %q: %w", name, err)
	}
	f, err := os.OpenFile(jp, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err == nil {
		var frame []byte
		if fi.Size() == 0 {
			frame = []byte(journalMagic)
		}
		_, err = f.Write(appendFrame(frame, payload.Bytes()))
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("graph: journaling mutation for %q: %w", name, err)
	}
	return f.Close()
}

// load reads a snapshot, replays its mutation journal, and validates the
// result, returning with it the bytes the journal must be rewritten to when
// it needs a repair (nil when it does not; see replayJournal). Every
// integrity failure — undecodable snapshot, corrupt or invalid journal
// frame, a replayed graph that fails Validate — fails closed with
// ErrCorruptGraph.
func (s *Store) load(name string) (*Graph, []byte, error) {
	path, err := s.path(name)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var g Graph
	if err := gob.NewDecoder(f).Decode(&g); err != nil {
		return nil, nil, fmt.Errorf("%w: %q: %v", ErrCorruptGraph, name, err)
	}
	fix, err := s.replayJournal(name, &g)
	if err != nil {
		return nil, nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%w: %q: %v", ErrCorruptGraph, name, err)
	}
	return &g, fix, nil
}

// replayJournal applies every journal frame to a freshly loaded snapshot.
// A missing journal means no mutations since the snapshot. A torn final
// frame — what a crash during an append leaves — is dropped, and the graph
// loads at the version of the last whole frame; any other damage fails
// closed. The journal itself is left untouched: when it needs a repair — a
// torn tail to cut off, or a headerless journal to bring to the current
// format — the bytes it must hold are returned for the caller to write.
func (s *Store) replayJournal(name string, g *Graph) ([]byte, error) {
	jp, err := s.journalPath(name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(jp)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	read, off := readFrame, len(journalMagic)
	legacy := len(data) > 0 && data[0] != journalMagic[0]
	switch {
	case len(data) == 0:
		return nil, nil
	case legacy:
		read, off = readLegacyFrame, 0
	case len(data) < off && journalMagic[:len(data)] == string(data):
		// A crash cut the header of a new journal: nothing was committed.
		return []byte(journalMagic), nil
	case !bytes.HasPrefix(data, []byte(journalMagic)):
		return nil, fmt.Errorf("%w: %q: unknown mutation journal header", ErrCorruptGraph, name)
	}
	var fix []byte // a legacy journal's current-format copy
	if legacy {
		fix = []byte(journalMagic)
	}
	for frame := 0; off < len(data); frame++ {
		payload, next, err := read(data, off)
		if errors.Is(err, errTornTail) {
			return data[:off], nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %q: mutation journal frame %d: %v", ErrCorruptGraph, name, frame, err)
		}
		var mb MutationBatch
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&mb); err != nil {
			return nil, fmt.Errorf("%w: %q: undecodable mutation journal frame %d: %v", ErrCorruptGraph, name, frame, err)
		}
		if _, err := g.ApplyMutation(&mb); err != nil {
			return nil, fmt.Errorf("%w: %q: replaying mutation journal frame %d: %v", ErrCorruptGraph, name, frame, err)
		}
		if legacy {
			fix = appendFrame(fix, payload)
		}
		off = next
	}
	return fix, nil
}
