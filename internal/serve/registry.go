package serve

import (
	"fmt"
	"sort"
	"sync"

	"geostat"
)

// DatasetInfo is the registry's public view of one dataset. Digest is only
// populated by the digest endpoint (it costs a full pass over the
// columns); the listing leaves it empty.
type DatasetInfo struct {
	Name      string `json:"name"`
	N         int    `json:"n"`
	Version   uint64 `json:"version"`
	HasTimes  bool   `json:"has_times"`
	HasValues bool   `json:"has_values"`
	Digest    string `json:"digest,omitempty"`
}

type regEntry struct {
	d       *geostat.Dataset
	version uint64

	// digest memoises d.Digest() — immutable dataset, computed on first
	// request. The Once is shared by pointer so copies of the entry value
	// still memoise once.
	digestOnce *sync.Once
	digest     *string
}

// Registry is the in-memory dataset store behind geostatd. Each name maps
// to an immutable dataset snapshot plus a registry-wide monotonic version:
// re-uploading a name bumps the version, so cache keys built from
// name@version can never serve results computed against stale data (and
// the server drops the old version's results, see Server.putDataset).
type Registry struct {
	mu      sync.RWMutex
	entries map[string]regEntry
	version uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]regEntry)}
}

// Put stores (or replaces) a dataset under name after validating it.
// Callers must not mutate d afterwards — concurrent requests read it
// without copying.
func (r *Registry) Put(name string, d *geostat.Dataset) (uint64, error) {
	version, _, err := r.put(name, d)
	return version, err
}

// put is Put that also reports whether name was registered before, which
// is when cached results of the old snapshot exist to be dropped.
func (r *Registry) put(name string, d *geostat.Dataset) (version uint64, replaced bool, err error) {
	if name == "" {
		return 0, false, fmt.Errorf("serve: empty dataset name")
	}
	if d == nil || d.N() == 0 {
		return 0, false, fmt.Errorf("serve: dataset %q is empty", name)
	}
	if err := d.Validate(); err != nil {
		return 0, false, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, replaced = r.entries[name]
	r.version++
	r.entries[name] = regEntry{
		d: d, version: r.version,
		digestOnce: new(sync.Once), digest: new(string),
	}
	return r.version, replaced, nil
}

// Get returns the dataset and its version, or false if name is unknown.
func (r *Registry) Get(name string) (*geostat.Dataset, uint64, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e.d, e.version, ok
}

// Digest returns the dataset's content digest (see Dataset.Digest), its
// version, and whether name is registered. The digest is computed once per
// stored snapshot and memoised.
func (r *Registry) Digest(name string) (digest string, version uint64, ok bool) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return "", 0, false
	}
	e.digestOnce.Do(func() { *e.digest = e.d.Digest() })
	return *e.digest, e.version, true
}

// List returns every dataset's info, sorted by name.
func (r *Registry) List() []DatasetInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]DatasetInfo, len(names))
	for i, name := range names {
		e := r.entries[name]
		out[i] = DatasetInfo{
			Name:      name,
			N:         e.d.N(),
			Version:   e.version,
			HasTimes:  e.d.HasTimes(),
			HasValues: e.d.HasValues(),
		}
	}
	return out
}
