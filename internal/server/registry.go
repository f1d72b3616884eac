package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"indoorpath/internal/core"
	"indoorpath/internal/itgraph"
	"indoorpath/internal/model"
	"indoorpath/internal/service"
	"indoorpath/internal/synth"
	"indoorpath/internal/temporal"
)

// pooledMethods are the engine methods a venue keeps warm pools for.
// The waiting method has no pooled engine (its router is stateful and
// cheap); servers build one per request instead.
var pooledMethods = [...]core.Method{core.MethodSyn, core.MethodAsyn, core.MethodStatic}

// Venue is one served venue: an ID plus one service.Pool per engine
// method, all over the same IT-Graph. Schedule updates swap the shared
// graph into every pool (each swap is atomic per pool: a response is
// computed entirely against the old backend or entirely against the
// new one, and post-swap requests can never hit pre-swap cache
// entries).
type Venue struct {
	id     string
	source string
	pools  [len(pooledMethods)]*service.Pool

	// updMu serialises schedule updates so concurrent PUTs cannot
	// interleave their WithSchedules bases; routes never take it.
	updMu sync.Mutex
	// epoch counts applied schedule updates.
	epoch atomic.Int64
}

// ID returns the registry key.
func (v *Venue) ID() string { return v.id }

// Source describes where the venue came from ("preset:mall",
// "file:/path/mall.json", "api").
func (v *Venue) Source() string { return v.source }

// Epoch returns the number of schedule updates applied so far.
func (v *Venue) Epoch() int64 { return v.epoch.Load() }

// Pool returns the serving pool for a pooled method.
func (v *Venue) Pool(m core.Method) *service.Pool { return v.pools[m] }

// Graph returns the current shared IT-Graph.
func (v *Venue) Graph() *itgraph.Graph { return v.pools[core.MethodAsyn].Graph() }

// Model returns the current venue model.
func (v *Venue) Model() *model.Venue { return v.Graph().Venue() }

// UpdateSchedules applies door-schedule changes as one atomic swap:
// one new IT-Graph is derived via itgraph.Graph.WithSchedules, and
// every method pool swaps to it (engines and result caches included).
// Updates are serialised; routes keep flowing throughout and each
// response reflects either the old or the new schedule set in full,
// never a mix. The returned epoch is THIS update's generation
// (computed under the update lock, so concurrent updaters each get
// their own number).
func (v *Venue) UpdateSchedules(updates map[model.DoorID]temporal.Schedule) (int64, error) {
	v.updMu.Lock()
	defer v.updMu.Unlock()
	g2, err := v.Graph().WithSchedules(updates)
	if err != nil {
		return v.epoch.Load(), err
	}
	for _, p := range v.pools {
		p.SetGraph(g2)
	}
	return v.epoch.Add(1), nil
}

// Info summarises the venue for the listing endpoint.
func (v *Venue) Info() VenueInfo {
	mv := v.Model()
	g := v.Graph()
	return VenueInfo{
		ID:          v.id,
		Name:        mv.Name,
		Source:      v.source,
		Partitions:  mv.PartitionCount(),
		Doors:       mv.DoorCount(),
		Floors:      len(mv.Floors()),
		Checkpoints: g.Checkpoints().Len(),
		Epoch:       v.Epoch(),
	}
}

// Registry maps venue IDs to served venues. Registration (Add,
// LoadDir, AddPresets) and lookup are safe for concurrent use; the
// expensive per-venue state lives in the Venue, so lookups are a brief
// read-lock away from lock-free.
type Registry struct {
	poolOpts service.Options

	mu     sync.RWMutex
	venues map[string]*Venue
}

// NewRegistry builds an empty registry; every venue added later gets
// one pool per method configured from opts (the Engine.Method field is
// overridden per pool).
func NewRegistry(opts service.Options) *Registry {
	return &Registry{poolOpts: opts, venues: make(map[string]*Venue)}
}

// Presets lists the built-in venue IDs AddPresets understands.
func Presets() []string { return []string{"mall", "hospital", "office", "figure1"} }

// PresetVenue builds one preset's venue model. Presets are pure
// functions of their name (the mall's generator seeds are fixed), so
// every caller — AddPresets here, the replay harness rebuilding served
// geometry client-side — gets the identical model.
func PresetVenue(name string) (*model.Venue, error) {
	switch name {
	case "mall":
		m, err := synth.GenerateMall(synth.MallConfig{
			Seed: 42,
			ATI:  synth.ATIConfig{CheckpointCount: 8, Seed: 43},
		})
		if err != nil {
			return nil, fmt.Errorf("server: preset mall: %w", err)
		}
		return m.Venue, nil
	case "hospital":
		return synth.Hospital(), nil
	case "office":
		return synth.Office(), nil
	case "figure1":
		return synth.PaperFigure1().Venue, nil
	}
	return nil, fmt.Errorf("server: unknown preset %q (want one of %s)", name, strings.Join(Presets(), ", "))
}

// ErrDuplicateVenue is wrapped by Add/AddGraph when the ID is taken —
// the hot-reload endpoint maps it to HTTP 409.
var ErrDuplicateVenue = errors.New("venue id already registered")

// Add registers a venue model under an ID, building its IT-Graph and
// method pools. IDs are path segments: non-empty UTF-8, no "/" or
// space.
func (r *Registry) Add(id string, v *model.Venue) error {
	g, err := itgraph.New(v)
	if err != nil {
		return fmt.Errorf("server: venue %q: %w", id, err)
	}
	return r.AddGraph(id, g, "api")
}

// AddGraph registers a venue by its already-built IT-Graph (source is
// recorded for the listing endpoint).
func (r *Registry) AddGraph(id string, g *itgraph.Graph, source string) error {
	if id == "" || strings.ContainsAny(id, "/ ") || !utf8.ValidString(id) {
		return fmt.Errorf("server: bad venue id %q: must be a non-empty UTF-8 path segment", id)
	}
	ve := &Venue{id: id, source: source}
	for _, m := range pooledMethods {
		opts := r.poolOpts
		opts.Engine.Method = m
		ve.pools[m] = service.New(g, opts)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.venues[id]; dup {
		return fmt.Errorf("server: venue %q: %w", id, ErrDuplicateVenue)
	}
	r.venues[id] = ve
	return nil
}

// LoadDir registers every *.json venue document in dir (see
// cmd/venuegen for the format); the ID is the file name without the
// extension. Returns the IDs added, in load (sorted file name) order.
// On a mid-directory error the venues already registered stay
// registered — the hot-reload endpoint reports the error and callers
// can inspect IDs().
func (r *Registry) LoadDir(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("server: no *.json venue files in %q", dir)
	}
	sort.Strings(files)
	added := make([]string, 0, len(files))
	for _, file := range files {
		// Cheap duplicate check before parsing and graph construction
		// (benign TOCTOU: AddGraph re-checks under the lock).
		if id := strings.TrimSuffix(filepath.Base(file), ".json"); r.has(id) {
			return added, fmt.Errorf("server: venue %q: %w", id, ErrDuplicateVenue)
		}
		f, err := os.Open(file)
		if err != nil {
			return added, err
		}
		v, err := itgraph.Load(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return added, fmt.Errorf("server: %s: %w", file, err)
		}
		id := strings.TrimSuffix(filepath.Base(file), ".json")
		g, err := itgraph.New(v)
		if err != nil {
			return added, fmt.Errorf("server: %s: %w", file, err)
		}
		if err := r.AddGraph(id, g, "file:"+file); err != nil {
			return added, err
		}
		added = append(added, id)
	}
	return added, nil
}

// AddPresets registers built-in synthetic venues from a comma-
// separated list: mall (the paper's 5-floor synthetic mall), hospital,
// office, figure1 (the paper's running example). Returns the IDs
// added, in list order.
func (r *Registry) AddPresets(names string) ([]string, error) {
	var added []string
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		known := false
		for _, p := range Presets() {
			if p == name {
				known = true
				break
			}
		}
		if !known {
			return added, fmt.Errorf("server: unknown preset %q (want one of %s)", name, strings.Join(Presets(), ", "))
		}
		// Cheap duplicate check before venue synthesis and graph
		// construction (benign TOCTOU: AddGraph re-checks under the
		// lock) — a replayed hot-reload request must not burn a full
		// mall build just to answer 409.
		if r.has(name) {
			return added, fmt.Errorf("server: venue %q: %w", name, ErrDuplicateVenue)
		}
		v, err := PresetVenue(name)
		if err != nil {
			return added, err
		}
		g, err := itgraph.New(v)
		if err != nil {
			return added, fmt.Errorf("server: preset %s: %w", name, err)
		}
		if err := r.AddGraph(name, g, "preset:"+name); err != nil {
			return added, err
		}
		added = append(added, name)
	}
	return added, nil
}

// has reports whether id is registered.
func (r *Registry) has(id string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.venues[id]
	return ok
}

// Get returns the venue registered under id.
func (r *Registry) Get(id string) (*Venue, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ve, ok := r.venues[id]
	return ve, ok
}

// Len returns the number of registered venues.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.venues)
}

// IDs returns the registered venue IDs, sorted.
func (r *Registry) IDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]string, 0, len(r.venues))
	for id := range r.venues {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Venues returns the registered venues sorted by ID.
func (r *Registry) Venues() []*Venue {
	r.mu.RLock()
	out := make([]*Venue, 0, len(r.venues))
	for _, ve := range r.venues {
		out = append(out, ve)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}
