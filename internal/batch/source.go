package batch

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"regsat/internal/cyclic"
	"regsat/internal/ddg"
)

// Item is one graph of a batch stream. A source that fails to load an input
// yields an Item carrying the error instead of aborting the stream, so one
// bad file never kills the batch.
type Item struct {
	// Name identifies the item in results (file path, kernel name, …).
	Name string
	// Graph is the finalized DDG (nil when Err or Loop is set).
	Graph *ddg.Graph
	// Loop is a cyclic loop kernel; items carry either Graph or Loop, never
	// both. File sources set it automatically when the input carries the
	// `loop` header flag.
	Loop *cyclic.Loop
	// Err is the load failure of this item, if any.
	Err error

	// validated marks a Loop that intake (ParseText, Loops) already
	// validated.
	validated bool
}

// Source streams DDGs into the engine. Next returns ok=false when the
// source is exhausted. Sources are consumed by a single goroutine, so
// implementations need not be safe for concurrent use.
type Source interface {
	Next() (Item, bool)
}

// sliceSource streams a precomputed item slice.
type sliceSource struct {
	items []Item
	pos   int
}

func (s *sliceSource) Next() (Item, bool) {
	if s.pos >= len(s.items) {
		return Item{}, false
	}
	s.pos++
	return s.items[s.pos-1], true
}

// Items streams precomputed items in order — the hook for callers (the
// analysis daemon) whose inputs are not files or prebuilt graphs: an item
// can carry a graph parsed from a request body, or the parse failure as a
// per-item error.
func Items(items ...Item) Source { return &sliceSource{items: items} }

// Graphs streams already-built graphs, named by their Graph.Name. Graphs
// are finalized up front (in place), so one graph passed twice is safe to
// analyze from concurrent workers; finalization failures become per-item
// errors.
func Graphs(gs ...*ddg.Graph) Source {
	items := make([]Item, len(gs))
	for i, g := range gs {
		if err := g.Finalize(); err != nil {
			items[i] = Item{Name: g.Name, Err: err}
			continue
		}
		items[i] = Item{Name: g.Name, Graph: g}
	}
	return &sliceSource{items: items}
}

// Loops streams already-built cyclic loop kernels, named by their Name.
// Validation failures become per-item errors.
func Loops(ls ...*cyclic.Loop) Source {
	items := make([]Item, len(ls))
	for i, l := range ls {
		if err := l.Validate(); err != nil {
			items[i] = Item{Name: l.Name, Err: err}
			continue
		}
		items[i] = Item{Name: l.Name, Loop: l, validated: true}
	}
	return &sliceSource{items: items}
}

// Files streams the given .ddg files lazily: each file is opened, parsed,
// and finalized when the engine pulls it. Load failures become per-item
// errors.
func Files(paths ...string) Source {
	return &fileSource{paths: paths}
}

type fileSource struct {
	paths []string
	pos   int
}

func (s *fileSource) Next() (Item, bool) {
	if s.pos >= len(s.paths) {
		return Item{}, false
	}
	path := s.paths[s.pos]
	s.pos++
	it := loadFile(path)
	it.Name = path
	return it, true
}

// loadFile parses one .ddg file (ParseText). Errors are not prefixed with
// the path: the Item.Name / Result.Name reported alongside already carries
// it.
func loadFile(path string) Item {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Item{Err: err}
	}
	return ParseText(string(raw))
}

// ParseText parses one .ddg text into an item, dispatching on the `loop`
// header flag: loop kernels load as validated cyclic Loops, everything else
// as finalized acyclic graphs. The item is named after the parsed graph
// (unnamed when the text does not parse); a finalize or validation failure
// is the item's Err.
func ParseText(text string) Item {
	if cyclic.Detect(text) {
		l, err := cyclic.ParseString(text)
		if err != nil {
			return Item{Err: err}
		}
		if err := l.Validate(); err != nil {
			return Item{Name: l.Name, Err: err}
		}
		return Item{Name: l.Name, Loop: l, validated: true}
	}
	g, err := ddg.ParseString(text)
	if err != nil {
		return Item{Err: err}
	}
	if err := g.Finalize(); err != nil {
		return Item{Name: g.Name, Err: err}
	}
	return Item{Name: g.Name, Graph: g}
}

// Dir streams every *.ddg file of a directory in sorted order. It fails up
// front when the directory cannot be read or holds no corpus files, so the
// caller can distinguish a missing corpus from an empty result stream.
func Dir(dir string) (Source, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.ddg"))
	if err != nil {
		return nil, fmt.Errorf("batch: glob %s: %w", dir, err)
	}
	if len(files) == 0 {
		if _, statErr := os.Stat(dir); statErr != nil {
			return nil, fmt.Errorf("batch: %w", statErr)
		}
		return nil, fmt.Errorf("batch: no .ddg files in %s", dir)
	}
	sort.Strings(files)
	return Files(files...), nil
}

// Paths streams a mix of .ddg files and directories (each directory expands
// to its sorted *.ddg files), in the order given.
func Paths(paths ...string) (Source, error) {
	var files []string
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, fmt.Errorf("batch: %w", err)
		}
		if !info.IsDir() {
			files = append(files, p)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(p, "*.ddg"))
		if err != nil {
			return nil, fmt.Errorf("batch: glob %s: %w", p, err)
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("batch: no .ddg files in %s", p)
		}
		sort.Strings(matches)
		files = append(files, matches...)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("batch: no input files")
	}
	return Files(files...), nil
}

// Generate streams n random finalized DDGs derived from consecutive seeds
// seed, seed+1, …: a synthetic workload source for stress and scale runs.
func Generate(n int, seed int64, params ddg.RandomParams) Source {
	return &genSource{n: n, seed: seed, params: params}
}

type genSource struct {
	n      int
	seed   int64
	pos    int
	params ddg.RandomParams
}

func (s *genSource) Next() (Item, bool) {
	if s.pos >= s.n {
		return Item{}, false
	}
	seed := s.seed + int64(s.pos)
	s.pos++
	g := ddg.RandomGraph(rand.New(rand.NewSource(seed)), s.params)
	g.Name = fmt.Sprintf("%s-seed%d", g.Name, seed)
	return Item{Name: g.Name, Graph: g}, true
}

// Concat chains sources into one stream.
func Concat(sources ...Source) Source {
	return &concatSource{sources: sources}
}

type concatSource struct {
	sources []Source
}

func (s *concatSource) Next() (Item, bool) {
	for len(s.sources) > 0 {
		if it, ok := s.sources[0].Next(); ok {
			return it, true
		}
		s.sources = s.sources[1:]
	}
	return Item{}, false
}
