package tuned

import (
	"encoding/json"
	"io"
	"maps"
	"os"
	"slices"

	"repro"
	"repro/internal/autotune"
)

// This file is the auxiliary persistence riding alongside the cache state
// file (StatePath): the hinted-handoff queue (StatePath+".handoff") and the
// background refinement backlog (StatePath+".refine"). Both are written by
// the same timed/shutdown flush as the cache, through the same atomic
// writer (autotune.AtomicWriteFile), and restored on boot — a crashed replica
// neither loses the writes it was holding for a down peer nor forgets the
// analytically-answered clients it owed a measured upgrade. Both files are
// best-effort state: a missing, torn or version-skewed file restores
// nothing and boot proceeds (the cache file is the source of truth; these
// only save redundant work).

// auxFormatVersion versions the two auxiliary snapshot files.
const auxFormatVersion = 1

// handoffFile is the on-disk form of the hinted-handoff queue: per peer,
// the parked cache entries in the same validated entry format as the cache
// file itself.
type handoffFile struct {
	Version int                              `json:"version"`
	Peers   map[string][]autotune.CacheEntry `json:"peers"`
}

// refineFile is the on-disk form of the refinement backlog: each job as the
// client-facing network description, so the replay path is the ordinary
// request path (validation included).
type refineFile struct {
	Version int                        `json:"version"`
	Jobs    []repro.NetworkDescription `json:"jobs"`
}

// writeJSONFile snapshots v to path as compact JSON through the one
// crash-safe writer the cache snapshot uses (temp file, fsync, rename).
func writeJSONFile(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return autotune.AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// flushAux snapshots the handoff queue and the refinement backlog, when
// their machinery is configured.
func (s *Server) flushAux() error {
	if s.cluster != nil {
		f := handoffFile{Version: auxFormatVersion, Peers: s.cluster.handoff.Snapshot()}
		if err := writeJSONFile(s.cfg.StatePath+".handoff", f); err != nil {
			return err
		}
	}
	if s.refineCh == nil {
		return nil
	}
	s.refineMu.Lock()
	jobs := make([]repro.NetworkDescription, 0, len(s.refineQueue))
	for _, k := range slices.Sorted(maps.Keys(s.refineQueue)) {
		jobs = append(jobs, s.refineQueue[k].Description())
	}
	s.refineMu.Unlock()
	return writeJSONFile(s.cfg.StatePath+".refine", refineFile{Version: auxFormatVersion, Jobs: jobs})
}

// readJSONFile loads one auxiliary snapshot into v, reporting false for a
// missing or torn file (the caller checks the version it decoded).
func readJSONFile(path string, v any) bool {
	data, err := os.ReadFile(path)
	return err == nil && json.Unmarshal(data, v) == nil
}

// restoreAux is flushAux's inverse at boot: it reloads parked hinted
// handoff, and re-enqueues the persisted refinement backlog through the
// ordinary enqueue path, re-validating every description — a corrupted or
// hand-edited file can drop jobs but cannot poison the queue.
func (s *Server) restoreAux() {
	var h handoffFile
	if s.cluster != nil && readJSONFile(s.cfg.StatePath+".handoff", &h) && h.Version == auxFormatVersion {
		for peer, entries := range h.Peers {
			s.cluster.handoff.Queue(peer, entries)
		}
	}
	var f refineFile
	if s.refineCh == nil || !readJSONFile(s.cfg.StatePath+".refine", &f) || f.Version != auxFormatVersion {
		return
	}
	for _, d := range f.Jobs {
		if d.Validate() != nil {
			continue
		}
		if req, err := s.resolve(d); err == nil {
			s.enqueueRefine(req)
		}
	}
}
