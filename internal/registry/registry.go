// Package registry is the versioned on-disk model store behind
// zero-downtime serving: rnebuild publishes immutable model versions
// into it, rneserver resolves and hot-swaps them. One registry root
// holds any number of named models, each a directory of numbered
// version directories plus a manifest:
//
//	<root>/<name>/
//	    MANIFEST.json            index of versions, pin, quarantine marks
//	    v1/  model.rne           RNEMODEL3 model
//	         alt.rnealt          optional ALT guard index (RNEALT1)
//	         spatial.rneidx      optional spatial index (RNEIDX2)
//	         shards/             optional geo-shard cut: shardmap.rnemap
//	                             (RNESMAP1), <k>/shard.rne (RNESHARD1)
//	                             and <k>/alt.rnealt
//	    v2/  ...
//
// Every artifact is one CRC-framed fsx section. Every file is written
// through fsx.WriteAtomic and versions are staged in a hidden
// directory, renamed into place, and only then recorded in the
// manifest — a crashed or failed publish can never surface a
// half-written version as Latest. Loads verify each artifact's length
// and CRC32, reject bytes after it, and size nothing from a header; a
// version whose artifacts no longer parse (truncated, bit-rotted, or
// declaring more than the file holds) is quarantined (directory
// renamed aside, manifest marked) and resolution falls back to the
// newest remaining good version. Retention GC bounds disk growth
// without ever deleting the pinned or newest good version.
package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/alt"
	"repro/internal/core"
	"repro/internal/fsx"
	"repro/internal/index"
	"repro/internal/shard"
)

// Artifact file names within a version directory.
const (
	ModelFile   = "model.rne"
	ALTFile     = "alt.rnealt"
	SpatialFile = "spatial.rneidx"
	// ShardMapFile is the vertex→shard routing map of a sharded
	// version, under the shards/ subdirectory next to the per-shard
	// artifact directories.
	ShardMapFile = "shards/shardmap.rnemap"
)

// ShardDir returns the version-relative directory of shard k's
// artifacts.
func ShardDir(k int) string { return filepath.Join("shards", strconv.Itoa(k)) }

// ShardModelFile returns the version-relative path of shard k's model.
func ShardModelFile(k int) string { return filepath.Join(ShardDir(k), "shard.rne") }

// ShardALTFile returns the version-relative path of shard k's
// region-restricted guard index.
func ShardALTFile(k int) string { return filepath.Join(ShardDir(k), "alt.rnealt") }

const manifestFile = "MANIFEST.json"

// quarantineSuffix marks version directories moved aside after failing
// integrity checks; quarantined directories are never resolved again
// but are kept on disk for forensics until GC removes them.
const quarantineSuffix = ".quarantined"

var (
	nameRe    = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]*$`)
	versionRe = regexp.MustCompile(`^v([0-9]+)$`)
)

// Version is one manifest entry: an immutable published model version.
type Version struct {
	Version     string   `json:"version"`
	CreatedUnix int64    `json:"created_unix"`
	Files       []string `json:"files"`
	Quarantined bool     `json:"quarantined,omitempty"`
}

// manifest is the per-model index, serialized as MANIFEST.json.
type manifest struct {
	Name     string    `json:"name"`
	Pinned   string    `json:"pinned,omitempty"`
	Versions []Version `json:"versions"`
}

// Artifacts bundles what one Publish writes. Model is required; the
// rest are optional siblings.
type Artifacts struct {
	Model *core.Model
	// ALT, when non-nil, stores the guard index alongside the model so
	// a swapped-in version carries its own certified-bounds guard.
	ALT *alt.Index
	// Index, when non-nil, stores the spatial index.
	Index *index.Tree
	// Shards, when non-nil, additionally publishes the version as a
	// sharded cut (shard.Cut output): the routing map plus one
	// directory per shard under shards/, each holding the shard model
	// and its region-restricted guard. The same manifest-last staging
	// covers them, so a torn sharded publish never surfaces.
	Shards *shard.Split
}

// Set is one fully-loaded version: the unit a server hot-swaps.
// Exactly the artifacts present on disk are non-nil.
type Set struct {
	Name    string
	Version string
	Model   *core.Model
	ALT     *alt.Index
	Index   *index.Tree
	// Shard and ShardMap are set only by LoadShard/LoadLatestShard:
	// one shard's model (Model stays nil) plus the version's
	// routing map, cross-checked against it. ALT then holds the
	// shard's region-restricted guard rather than the full one.
	Shard    *shard.Model
	ShardMap *shard.Map
}

// ErrNoShard marks a shard request a version cannot answer: a
// negative shard id, a version published without shards, or an id
// past its shard count. It is the caller's mismatch, not corruption,
// so LoadLatestShard returns it at once and quarantines nothing.
var ErrNoShard = errors.New("no such shard")

// LoadOpts tunes version loading. It has no settings today; the
// parameter keeps LoadVersion and LoadLatest call sites stable.
type LoadOpts struct{}

// Store is a registry rooted at one directory. A Store serializes its
// own manifest read-modify-write cycles; concurrent writers from
// different processes are not coordinated (run one publisher).
type Store struct {
	root string
	mu   sync.Mutex
}

// Open returns a Store rooted at dir, creating it if absent.
func Open(root string) (*Store, error) {
	if root == "" {
		return nil, fmt.Errorf("registry: empty root")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	return &Store{root: root}, nil
}

// Root returns the registry root directory.
func (s *Store) Root() string { return s.root }

// Dir returns the directory holding the named model's versions.
func (s *Store) Dir(name string) string { return filepath.Join(s.root, name) }

// Path returns the directory of one version of the named model.
func (s *Store) Path(name, version string) string {
	return filepath.Join(s.root, name, version)
}

func checkName(name string) error {
	if !nameRe.MatchString(name) {
		return fmt.Errorf("registry: invalid model name %q", name)
	}
	return nil
}

// readManifest loads the manifest for name; a missing manifest yields
// an empty one (a model with no published versions yet).
func (s *Store) readManifest(name string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(s.Dir(name), manifestFile))
	if os.IsNotExist(err) {
		return &manifest{Name: name}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("registry: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("registry: manifest for %q is corrupt: %w", name, err)
	}
	return &m, nil
}

// writeManifest atomically replaces the manifest for name.
func (s *Store) writeManifest(name string, m *manifest) error {
	return fsx.WriteAtomic(filepath.Join(s.Dir(name), manifestFile), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}

// versionNumber parses "v<N>"; ok is false for anything else.
func versionNumber(v string) (int, bool) {
	m := versionRe.FindStringSubmatch(v)
	if m == nil {
		return 0, false
	}
	n, err := strconv.Atoi(m[1])
	return n, err == nil
}

// nextVersion picks the successor of the highest version recorded in
// the manifest or present on disk (quarantined directories included, so
// version numbers are never reused).
func (s *Store) nextVersion(name string, m *manifest) string {
	max := 0
	for _, v := range m.Versions {
		if n, ok := versionNumber(v.Version); ok && n > max {
			max = n
		}
	}
	entries, _ := os.ReadDir(s.Dir(name))
	for _, e := range entries {
		base := strings.TrimSuffix(e.Name(), quarantineSuffix)
		if n, ok := versionNumber(base); ok && n > max {
			max = n
		}
	}
	return "v" + strconv.Itoa(max+1)
}

// Publish writes the artifacts as the next version of the named model
// and records it in the manifest. The version is staged in a hidden
// directory and renamed into place before the manifest update, so a
// failure at any point leaves Latest untouched.
func (s *Store) Publish(name string, art Artifacts) (string, error) {
	if err := checkName(name); err != nil {
		return "", err
	}
	if art.Model == nil {
		return "", fmt.Errorf("registry: publish needs a model")
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	dir := s.Dir(name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("registry: %w", err)
	}
	m, err := s.readManifest(name)
	if err != nil {
		return "", err
	}
	version := s.nextVersion(name, m)

	stage, err := os.MkdirTemp(dir, ".staging-"+version+"-*")
	if err != nil {
		return "", fmt.Errorf("registry: %w", err)
	}
	defer os.RemoveAll(stage) // no-op after the successful rename

	files := []string{ModelFile}
	if err := art.Model.SaveFile(filepath.Join(stage, ModelFile)); err != nil {
		return "", fmt.Errorf("registry: staging model: %w", err)
	}
	if art.ALT != nil {
		if art.ALT.NumVertices() != art.Model.NumVertices() {
			return "", fmt.Errorf("registry: ALT index covers %d vertices but model covers %d",
				art.ALT.NumVertices(), art.Model.NumVertices())
		}
		if err := art.ALT.SaveFile(filepath.Join(stage, ALTFile)); err != nil {
			return "", fmt.Errorf("registry: staging ALT index: %w", err)
		}
		files = append(files, ALTFile)
	}
	if art.Index != nil {
		if err := art.Index.SaveFile(filepath.Join(stage, SpatialFile)); err != nil {
			return "", fmt.Errorf("registry: staging spatial index: %w", err)
		}
		files = append(files, SpatialFile)
	}
	if art.Shards != nil {
		sf, err := stageShards(stage, art)
		if err != nil {
			return "", err
		}
		files = append(files, sf...)
	}

	if err := os.Rename(stage, s.Path(name, version)); err != nil {
		return "", fmt.Errorf("registry: committing %s: %w", version, err)
	}
	m.Versions = append(m.Versions, Version{
		Version:     version,
		CreatedUnix: time.Now().Unix(),
		Files:       files,
	})
	if err := s.writeManifest(name, m); err != nil {
		// The version directory exists but is unrecorded; the next
		// publish will skip its number and resolution ignores it.
		return "", err
	}
	return version, nil
}

// stageShards writes a sharded cut into the staging directory,
// validating the cut against the full model first. Returns the
// version-relative file names staged.
func stageShards(stage string, art Artifacts) ([]string, error) {
	sp := art.Shards
	if sp.Map == nil || len(sp.Shards) == 0 {
		return nil, fmt.Errorf("registry: sharded publish needs a map and at least one shard")
	}
	if sp.Map.NumVertices() != art.Model.NumVertices() {
		return nil, fmt.Errorf("registry: shard map covers %d vertices but model covers %d",
			sp.Map.NumVertices(), art.Model.NumVertices())
	}
	if len(sp.Shards) != sp.Map.NumShards() {
		return nil, fmt.Errorf("registry: %d shard models for a %d-shard map",
			len(sp.Shards), sp.Map.NumShards())
	}
	if sp.Guards != nil && len(sp.Guards) != len(sp.Shards) {
		return nil, fmt.Errorf("registry: %d shard guards for %d shards", len(sp.Guards), len(sp.Shards))
	}
	if err := os.MkdirAll(filepath.Dir(filepath.Join(stage, ShardMapFile)), 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	if err := sp.Map.SaveMapFile(filepath.Join(stage, ShardMapFile)); err != nil {
		return nil, fmt.Errorf("registry: staging shard map: %w", err)
	}
	files := []string{ShardMapFile}
	for k, sm := range sp.Shards {
		if sm == nil || sm.ShardID() != k {
			return nil, fmt.Errorf("registry: shard %d artifact missing or misnumbered", k)
		}
		if err := os.MkdirAll(filepath.Join(stage, ShardDir(k)), 0o755); err != nil {
			return nil, fmt.Errorf("registry: %w", err)
		}
		if err := sm.SaveFile(filepath.Join(stage, ShardModelFile(k))); err != nil {
			return nil, fmt.Errorf("registry: staging shard %d model: %w", k, err)
		}
		files = append(files, ShardModelFile(k))
		if sp.Guards != nil && sp.Guards[k] != nil {
			if err := sp.Guards[k].SaveFile(filepath.Join(stage, ShardALTFile(k))); err != nil {
				return nil, fmt.Errorf("registry: staging shard %d guard: %w", k, err)
			}
			files = append(files, ShardALTFile(k))
		}
	}
	return files, nil
}

// Versions lists the manifest entries for name, oldest first.
func (s *Store) Versions(name string) ([]Version, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.readManifest(name)
	if err != nil {
		return nil, err
	}
	out := make([]Version, len(m.Versions))
	copy(out, m.Versions)
	sort.Slice(out, func(i, j int) bool {
		a, _ := versionNumber(out[i].Version)
		b, _ := versionNumber(out[j].Version)
		return a < b
	})
	return out, nil
}

// Names lists the models with a manifest under the registry root.
func (s *Store) Names() ([]string, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(s.root, e.Name(), manifestFile)); err == nil {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// resolve returns the version Load should try first: the pin when set,
// else the newest non-quarantined version.
func resolve(m *manifest) (string, error) {
	if m.Pinned != "" {
		for _, v := range m.Versions {
			if v.Version == m.Pinned {
				if v.Quarantined {
					return "", fmt.Errorf("registry: pinned version %s of %q is quarantined", m.Pinned, m.Name)
				}
				return m.Pinned, nil
			}
		}
		return "", fmt.Errorf("registry: pinned version %s of %q does not exist", m.Pinned, m.Name)
	}
	best, bestN := "", -1
	for _, v := range m.Versions {
		if v.Quarantined {
			continue
		}
		if n, ok := versionNumber(v.Version); ok && n > bestN {
			best, bestN = v.Version, n
		}
	}
	if best == "" {
		return "", fmt.Errorf("registry: model %q has no usable versions", m.Name)
	}
	return best, nil
}

// Latest resolves the version a load would serve: the pinned version if
// one is set, otherwise the newest non-quarantined version.
func (s *Store) Latest(name string) (string, error) {
	if err := checkName(name); err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.readManifest(name)
	if err != nil {
		return "", err
	}
	return resolve(m)
}

// Pin makes every subsequent resolution return the given version until
// Unpin, shielding serving from newer publishes during e.g. a staged
// rollout or an incident rollback.
func (s *Store) Pin(name, version string) error {
	if err := checkName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.readManifest(name)
	if err != nil {
		return err
	}
	for _, v := range m.Versions {
		if v.Version == version {
			if v.Quarantined {
				return fmt.Errorf("registry: cannot pin quarantined version %s", version)
			}
			m.Pinned = version
			return s.writeManifest(name, m)
		}
	}
	return fmt.Errorf("registry: model %q has no version %s", name, version)
}

// Unpin restores newest-wins resolution.
func (s *Store) Unpin(name string) error {
	if err := checkName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.readManifest(name)
	if err != nil {
		return err
	}
	m.Pinned = ""
	return s.writeManifest(name, m)
}

// Quarantine moves the version's directory aside and marks it in the
// manifest so resolution never returns it again. Quarantining an
// already-quarantined or missing version is an error.
func (s *Store) Quarantine(name, version string) error {
	if err := checkName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantineLocked(name, version)
}

func (s *Store) quarantineLocked(name, version string) error {
	m, err := s.readManifest(name)
	if err != nil {
		return err
	}
	for i, v := range m.Versions {
		if v.Version != version {
			continue
		}
		if v.Quarantined {
			return fmt.Errorf("registry: version %s already quarantined", version)
		}
		src := s.Path(name, version)
		if err := os.Rename(src, src+quarantineSuffix); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("registry: quarantining %s: %w", version, err)
		}
		m.Versions[i].Quarantined = true
		if m.Pinned == version {
			m.Pinned = ""
		}
		return s.writeManifest(name, m)
	}
	return fmt.Errorf("registry: model %q has no version %s", name, version)
}

// LoadVersion loads one specific version's artifacts, verifying their
// integrity framing. It does not quarantine on failure — that policy
// lives in LoadLatest, where a fallback exists.
func (s *Store) LoadVersion(name, version string, _ LoadOpts) (*Set, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	dir := s.Path(name, version)
	m, err := core.LoadFile(filepath.Join(dir, ModelFile))
	if err != nil {
		return nil, fmt.Errorf("registry: %s/%s model: %w", name, version, err)
	}
	set := &Set{Name: name, Version: version, Model: m}
	if lt, err := alt.LoadFile(filepath.Join(dir, ALTFile)); err == nil {
		set.ALT = lt
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("registry: %s/%s ALT index: %w", name, version, err)
	}
	if idx, err := index.LoadFile(filepath.Join(dir, SpatialFile), m); err == nil {
		set.Index = idx
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("registry: %s/%s spatial index: %w", name, version, err)
	}
	return set, nil
}

// LoadLatest resolves and loads the version Latest points at. If its
// artifacts fail to load (truncated or bit-flipped files), the version
// is quarantined and loading falls back to the next-newest good
// version, repeating until one loads or none remain. The returned
// error, when every version is corrupt, wraps the first failure.
func (s *Store) LoadLatest(name string, _ LoadOpts) (*Set, error) {
	return s.loadLatest(name, func(version string) (*Set, error) { return s.LoadVersion(name, version, LoadOpts{}) })
}

// loadLatest is the quarantine-and-fall-back loop behind LoadLatest and
// LoadLatestShard: load resolves one version's artifacts.
func (s *Store) loadLatest(name string, load func(version string) (*Set, error)) (*Set, error) {
	var firstErr error
	for {
		version, err := s.Latest(name)
		if err != nil {
			if firstErr != nil {
				return nil, fmt.Errorf("%w (after quarantining corrupt versions, first failure: %v)", err, firstErr)
			}
			return nil, err
		}
		set, err := load(version)
		if err == nil {
			return set, nil
		}
		if errors.Is(err, ErrNoShard) {
			return nil, err
		}
		if firstErr == nil {
			firstErr = err
		}
		if qerr := s.Quarantine(name, version); qerr != nil {
			return nil, fmt.Errorf("registry: loading %s failed (%v) and quarantine failed: %w", version, err, qerr)
		}
	}
}

// LoadShard loads shard k of one specific version: the shard model,
// the version's routing map (cross-checked against it) and, when
// present, the shard's region-restricted guard. A request the version
// cannot answer fails with ErrNoShard. Like LoadVersion it never
// quarantines — that policy lives in LoadLatestShard.
func (s *Store) LoadShard(name, version string, k int) (*Set, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	if k < 0 {
		return nil, fmt.Errorf("registry: %w: shard id must be >= 0, got %d", ErrNoShard, k)
	}
	dir := s.Path(name, version)
	sm, err := shard.LoadMapFile(filepath.Join(dir, ShardMapFile))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("registry: %w: %s/%s is not a sharded version (no %s)", ErrNoShard, name, version, ShardMapFile)
		}
		return nil, fmt.Errorf("registry: %s/%s shard map: %w", name, version, err)
	}
	if k >= sm.NumShards() {
		return nil, fmt.Errorf("registry: %w: %s/%s has %d shards, no shard %d", ErrNoShard, name, version, sm.NumShards(), k)
	}
	mdl, err := shard.LoadModelFile(filepath.Join(dir, ShardModelFile(k)))
	if err != nil {
		return nil, fmt.Errorf("registry: %s/%s shard %d model: %w", name, version, k, err)
	}
	if mdl.ShardID() != k || mdl.NumShards() != sm.NumShards() ||
		mdl.NumVertices() != sm.NumVertices() || mdl.CutLevel() != sm.CutLevel() {
		return nil, fmt.Errorf("registry: %s/%s shard %d disagrees with the shard map (shard %d/%d over %d vertices at cut %d vs map %d shards over %d at cut %d)",
			name, version, k, mdl.ShardID(), mdl.NumShards(), mdl.NumVertices(), mdl.CutLevel(),
			sm.NumShards(), sm.NumVertices(), sm.CutLevel())
	}
	set := &Set{Name: name, Version: version, Shard: mdl, ShardMap: sm}
	if lt, err := alt.LoadFile(filepath.Join(dir, ShardALTFile(k))); err == nil {
		set.ALT = lt
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("registry: %s/%s shard %d guard: %w", name, version, k, err)
	}
	return set, nil
}

// LoadLatestShard resolves the latest version and loads shard k of it,
// with the same quarantine-and-fall-back policy as LoadLatest: a
// version whose shard artifacts are corrupt is quarantined and the
// next-newest version is tried. A version that has no shard k (it was
// published without shards, or with fewer) fails with ErrNoShard and
// stays as it is: it may serve full replicas, and it is not corrupt.
func (s *Store) LoadLatestShard(name string, k int) (*Set, error) {
	return s.loadLatest(name, func(version string) (*Set, error) { return s.LoadShard(name, version, k) })
}

// GC enforces retention for the named model: the newest keep good
// versions (and the pinned version, always) survive; older versions and
// every quarantined directory beyond them are deleted from disk and
// dropped from the manifest. Returns the removed version names.
func (s *Store) GC(name string, keep int) ([]string, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	if keep < 1 {
		return nil, fmt.Errorf("registry: GC must keep at least 1 version, got %d", keep)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.readManifest(name)
	if err != nil {
		return nil, err
	}
	// Sort newest first; survivors are the first `keep` good versions
	// plus the pin wherever it falls.
	ordered := make([]Version, len(m.Versions))
	copy(ordered, m.Versions)
	sort.Slice(ordered, func(i, j int) bool {
		a, _ := versionNumber(ordered[i].Version)
		b, _ := versionNumber(ordered[j].Version)
		return a > b
	})
	survivors := make(map[string]bool)
	good := 0
	for _, v := range ordered {
		if v.Quarantined {
			continue
		}
		if good < keep || v.Version == m.Pinned {
			survivors[v.Version] = true
			good++
		}
	}
	var removed []string
	var kept []Version
	for _, v := range m.Versions {
		if survivors[v.Version] {
			kept = append(kept, v)
			continue
		}
		dir := s.Path(name, v.Version)
		if v.Quarantined {
			dir += quarantineSuffix
		}
		if err := os.RemoveAll(dir); err != nil {
			return removed, fmt.Errorf("registry: removing %s: %w", v.Version, err)
		}
		removed = append(removed, v.Version)
	}
	if len(removed) == 0 {
		return nil, nil
	}
	m.Versions = kept
	return removed, s.writeManifest(name, m)
}
