package tuned

import (
	"slices"
	"strconv"

	"repro"
	"repro/internal/autotune"
	"repro/internal/memsim"
)

// request is one tuning request with every default resolved: the single
// analytical description of the work that routing, admission, batching,
// the analytic tier, refinement, replication and persistence all consume.
// It is built once, by Server.resolve, and handed on whole — no stage
// re-derives the architecture, the layer list or the option overrides, and
// the legacy winograd flag lives in exactly one field past this point. A
// request is owned by one goroutine at a time (the handler, then a
// refinement worker it was handed to over a channel).
type request struct {
	desc     repro.NetworkDescription // as received: what a forward relays to the owner
	arch     memsim.Arch
	layers   []autotune.NetworkLayer
	tune     autotune.Options // server engine defaults under the request's budget and seed
	winograd bool
	kinds    []autotune.Kind
	// body is the raw POST body a hit-lane answer is recorded under, in the
	// endpoint's record set replies (replay.go); both nil for restored
	// requests.
	body    []byte
	replies *replies

	key string // memoised Key()
}

// resolve turns a validated description into the request value, applying
// the request's overrides to the server defaults. Every entry point — a
// client POST, a peer-forwarded POST, a .refine backlog restore — resolves
// through here, so the same description yields the same Key everywhere.
func (s *Server) resolve(desc repro.NetworkDescription) (*request, error) {
	arch, err := memsim.ByName(desc.Arch)
	if err != nil {
		return nil, err
	}
	r := &request{desc: desc, arch: arch, layers: desc.NetworkLayers(),
		tune: s.cfg.Tune, winograd: s.cfg.Winograd, kinds: s.cfg.Kinds}
	if o := desc.Options; o != nil {
		if o.Budget > 0 {
			r.tune.Budget = o.Budget
		}
		if o.Seed != 0 {
			r.tune.Seed = o.Seed
		}
		if o.Winograd != nil {
			r.winograd = *o.Winograd
		}
		// The description validator already vetted these names; a parse
		// failure here can only mean a caller bypassed it, so fall back to
		// the server default rather than crash.
		if kinds, err := repro.ParseKinds(o.Kinds); err == nil && len(kinds) > 0 {
			r.kinds = canonicalKinds(kinds)
		}
	}
	return r, nil
}

// canonicalKinds sorts kinds in Kind order and drops repeats, in place. The
// engine tunes a set of kinds, so every spelling of one set must resolve to
// one Key and one groupKey.
func canonicalKinds(kinds []autotune.Kind) []autotune.Kind {
	slices.Sort(kinds)
	return slices.Compact(kinds)
}

// kindNames is the canonical wire spelling of the request's candidate kinds.
func (r *request) kindNames() []string {
	names := make([]string, len(r.kinds))
	for i, k := range r.kinds {
		names[i] = k.String()
	}
	return names
}

// groupKey identifies the requests of a batch that may legally merge into
// one TuneNetwork call: same architecture and same per-layer engine
// options. Merging across differing options would change verdicts (the
// engine is deterministic in them), so each distinct key tunes separately.
func (r *request) groupKey() string { return string(r.appendGroupKey(nil)) }

// appendGroupKey appends "arch|budget|seed|winograd|kind,kind" to b.
func (r *request) appendGroupKey(b []byte) []byte {
	b = append(append(b, r.arch.Name...), '|')
	b = append(strconv.AppendInt(b, int64(r.tune.Budget), 10), '|')
	b = append(strconv.AppendInt(b, r.tune.Seed, 10), '|')
	b = append(strconv.AppendBool(b, r.winograd), '|')
	for i, k := range r.kinds {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, k.String()...)
	}
	return b
}

// Key identifies the request by everything that shapes its answer — the
// groupKey plus every layer shape. It is the dedup unit of the refinement
// queue (a hammered analytic endpoint enqueues each network once) and the
// routing key of the cluster layer (identical requests from any replica
// converge on one owner, so the cache dedup and warm-merge machinery keep
// working cluster-wide). Built on first use and kept: ring ownership hashes
// this exact string, so its layout is pinned by a golden test.
func (r *request) Key() string {
	if r.key == "" {
		b := r.appendGroupKey(make([]byte, 0, 64+64*len(r.layers)))
		for _, l := range r.layers {
			b = l.Shape.AppendString(append(b, '|'))
		}
		r.key = string(b)
	}
	return r.key
}

// Cost is the worst-case fresh-measurement count of the request on server
// s: per distinct search of its sweep (autotune.Searches), what the cache
// leaves it to spend (autotune.Cache.Covered — a full per-layer budget when
// the key is absent, the budget beyond the persisted one when the sweep will
// resume it, nothing when it is covered). Extra kinds are accounted before
// they can run.
func (r *request) Cost(s *Server) int64 {
	var cost int64
	for _, q := range autotune.Searches(r.arch, r.layers, r.sweepOptions(s)) {
		_, remaining := s.cache.Covered(r.arch.Name, q.Kind, q.Shape, r.tune.Budget, s.cfg.Resume)
		cost += int64(remaining)
	}
	return cost
}

// Entries gathers the persisted cache entries the request's sweep on s
// produced or touched, engine state included — the sweep measures all
// candidates (that is what the per-layer kernel choice compares), so after a
// measured answer every one of these exists and a replica receiving them can
// serve the same request with zero fresh measurements.
func (r *request) Entries(s *Server) []autotune.CacheEntry {
	var out []autotune.CacheEntry
	for _, q := range autotune.Searches(r.arch, r.layers, r.sweepOptions(s)) {
		if e, ok := s.cache.Entry(r.arch.Name, q.Kind, q.Shape); ok {
			out = append(out, e)
		}
	}
	return out
}

// sweepOptions is the request's sweep options short of the measurer seam and
// the analytic fallback: what is searched, how, and what counts as covered —
// all a sweep that turns out to measure nothing (the cache probe) reads.
func (r *request) sweepOptions(s *Server) autotune.NetworkOptions {
	return autotune.NetworkOptions{Tune: r.tune, Workers: s.cfg.LayerWorkers,
		Winograd: r.winograd, Kinds: r.kinds, Warm: s.cfg.Warm, Resume: s.cfg.Resume}
}

// NetworkOptions completes sweepOptions for a sweep that will measure: the
// measurer seam and, with any degradation trigger configured, the analytic
// fallback, so a layer whose search dies still answers.
func (r *request) NetworkOptions(s *Server) autotune.NetworkOptions {
	no := r.sweepOptions(s)
	no.WrapMeasurer = s.wrapMeasurer()
	if s.degraded {
		no.Analytic, _ = s.analyticFor(r.arch)
	}
	return no
}

// analyticKinds folds the winograd flag into the candidate-kind list the
// analytic tier filters on (candidateKinds treats a requested Winograd and
// the flag identically).
func (r *request) analyticKinds() []autotune.Kind {
	if !r.winograd || slices.Contains(r.kinds, autotune.Winograd) {
		return r.kinds
	}
	return append(slices.Clone(r.kinds), autotune.Winograd)
}

// Description is the request's own wire form with every option resolved:
// what the refinement backlog persists, so a restore on any later boot
// resolves to the same Key whatever that boot's defaults are.
func (r *request) Description() repro.NetworkDescription {
	desc := repro.DescribeNetwork(r.arch.Name, r.layers)
	desc.Options = &repro.RequestOptions{Budget: r.tune.Budget, Seed: r.tune.Seed,
		Winograd: &r.winograd, Kinds: r.kindNames()}
	return desc
}
