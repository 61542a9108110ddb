package repro

// This file is the wire format of the tuning service (cmd/tuned): the JSON
// network description a client POSTs to /v1/tune and the verdict list the
// server returns. It lives in the facade so client and server share one
// (de)serialization — the field names are part of the HTTP API and are
// deliberately decoupled from the internal structs, the same stability
// contract the cache file format keeps.

import (
	"fmt"
	"strconv"

	"repro/internal/autotune"
	"repro/internal/tensor"
)

// Wire-format hardening limits: the description decoder runs on untrusted
// input, so every dimension is bounded before it can reach the tuner.
const (
	// MaxDescriptionLayers caps the layers of one request.
	MaxDescriptionLayers = 512
	// MaxLayerDim caps every per-layer dimension (channels, spatial size,
	// kernel, stride, padding, batch, repeat).
	MaxLayerDim = 1 << 16
	// MaxRequestBudget caps the per-layer measurement budget a request may
	// ask for.
	MaxRequestBudget = 1 << 16
)

// LayerDescription is one convolution layer of a network description.
// Omitted fields default like NewShape's common case: batch 1, square
// image (win = hin), square kernel (wker = hker), stride 1, repeat 1.
type LayerDescription struct {
	Name   string `json:"name,omitempty"`
	Batch  int    `json:"batch,omitempty"`
	Cin    int    `json:"cin"`
	Hin    int    `json:"hin"`
	Win    int    `json:"win,omitempty"`
	Cout   int    `json:"cout"`
	Hker   int    `json:"hker"`
	Wker   int    `json:"wker,omitempty"`
	Stride int    `json:"stride,omitempty"`
	Pad    int    `json:"pad,omitempty"`
	// Groups is the channel group count of a grouped/depthwise convolution
	// (cin and cout must both divide by it). 0 or 1 means dense; old clients
	// that never send it keep their exact behavior.
	Groups int `json:"groups,omitempty"`
	Repeat int `json:"repeat,omitempty"`
}

// RequestOptions are the per-request tuning knobs a client may override;
// everything omitted uses the server's defaults.
type RequestOptions struct {
	// Budget is the per-layer measurement budget (0 = server default).
	Budget int `json:"budget,omitempty"`
	// Seed pins the engine's deterministic seed (0 = server default).
	Seed int64 `json:"seed,omitempty"`
	// Winograd overrides whether the fused Winograd dataflow is also tuned
	// where it applies (nil = server default).
	Winograd *bool `json:"winograd,omitempty"`
	// Kinds lists extra algorithm kinds the per-layer kernel choice may
	// consider where they apply ("winograd", "fft", "igemm"); the direct
	// dataflow is always tuned. Unknown names are rejected. Empty keeps the
	// server's default candidate set.
	Kinds []string `json:"kinds,omitempty"`
}

// NetworkDescription is a network tuning request: an architecture name, a
// layer inventory and optional tuning overrides.
type NetworkDescription struct {
	Arch    string             `json:"arch"`
	Name    string             `json:"name,omitempty"`
	Layers  []LayerDescription `json:"layers"`
	Options *RequestOptions    `json:"options,omitempty"`
}

// normalize fills the documented field defaults in.
func (d *NetworkDescription) normalize() {
	for i := range d.Layers {
		l := &d.Layers[i]
		if l.Batch == 0 {
			l.Batch = 1
		}
		if l.Win == 0 {
			l.Win = l.Hin
		}
		if l.Wker == 0 {
			l.Wker = l.Hker
		}
		if l.Stride == 0 {
			l.Stride = 1
		}
		if l.Repeat == 0 {
			l.Repeat = 1
		}
		if l.Name == "" {
			l.Name = "layer" + strconv.Itoa(i)
		}
	}
}

func (l LayerDescription) shape() Shape {
	return Shape{Batch: l.Batch, Cin: l.Cin, Hin: l.Hin, Win: l.Win,
		Cout: l.Cout, Hker: l.Hker, Wker: l.Wker, Strid: l.Stride, Pad: l.Pad,
		Groups: l.Groups}
}

// Validate checks the description against the shape validator and the wire
// limits. It assumes defaults are already filled (ParseNetworkDescription
// does both).
func (d NetworkDescription) Validate() error {
	if d.Arch == "" {
		return fmt.Errorf("repro: network description: missing arch")
	}
	if len(d.Layers) == 0 {
		return fmt.Errorf("repro: network description: no layers")
	}
	if len(d.Layers) > MaxDescriptionLayers {
		return fmt.Errorf("repro: network description: %d layers exceed the limit of %d", len(d.Layers), MaxDescriptionLayers)
	}
	for i, l := range d.Layers {
		for _, v := range [...]int{l.Batch, l.Cin, l.Hin, l.Win, l.Cout, l.Hker, l.Wker, l.Stride, l.Pad, l.Groups, l.Repeat} {
			if v < 0 || v > MaxLayerDim {
				return fmt.Errorf("repro: network description: layer %q (#%d): dimension %d outside [0, %d]", l.Name, i, v, MaxLayerDim)
			}
		}
		if err := l.shape().Validate(); err != nil {
			return fmt.Errorf("repro: network description: layer %q (#%d): %w", l.Name, i, err)
		}
	}
	if o := d.Options; o != nil {
		if o.Budget < 0 || o.Budget > MaxRequestBudget {
			return fmt.Errorf("repro: network description: budget %d outside [0, %d]", o.Budget, MaxRequestBudget)
		}
		if _, err := ParseKinds(o.Kinds); err != nil {
			return fmt.Errorf("repro: network description: %w", err)
		}
	}
	return nil
}

// ParseKinds converts a wire kind list to engine kinds, rejecting names the
// registry does not know.
func ParseKinds(names []string) ([]Kind, error) {
	if len(names) == 0 {
		return nil, nil
	}
	kinds := make([]Kind, len(names))
	for i, n := range names {
		k, err := autotune.ParseKind(n)
		if err != nil {
			return nil, err
		}
		kinds[i] = k
	}
	return kinds, nil
}

// NetworkLayers converts a validated description into the network tuner's
// request type.
func (d NetworkDescription) NetworkLayers() []NetworkLayer {
	layers := make([]NetworkLayer, len(d.Layers))
	for i, l := range d.Layers {
		layers[i] = NetworkLayer{Name: l.Name, Shape: l.shape(), Repeat: l.Repeat}
	}
	return layers
}

// DescribeNetwork is the client-side inverse of NetworkLayers: it wraps a
// layer inventory as the wire format POSTed to the service.
func DescribeNetwork(archName string, layers []NetworkLayer) NetworkDescription {
	d := NetworkDescription{Arch: archName, Layers: make([]LayerDescription, len(layers))}
	for i, l := range layers {
		s := l.Shape
		d.Layers[i] = LayerDescription{Name: l.Name,
			Batch: s.Batch, Cin: s.Cin, Hin: s.Hin, Win: s.Win,
			Cout: s.Cout, Hker: s.Hker, Wker: s.Wker,
			Stride: s.Strid, Pad: s.Pad, Groups: s.Groups, Repeat: l.Repeat}
	}
	d.normalize()
	return d
}

// ParseNetworkDescription decodes and validates a network description.
// Unknown fields, trailing data and out-of-range values are all rejected
// with an error; no input makes it panic (the decoder is fuzzed). The
// returned description has all defaults filled in.
func ParseNetworkDescription(data []byte) (NetworkDescription, error) {
	var d NetworkDescription
	if err := decodeWire(data, &d, (*wireScanner).network); err != nil {
		return NetworkDescription{}, fmt.Errorf("repro: network description: %w", err)
	}
	d.normalize()
	if err := d.Validate(); err != nil {
		return NetworkDescription{}, err
	}
	return d, nil
}

// MaxForwardAttempts caps the Attempt counter a forwarded request may
// carry — far above what any legal failover ladder produces (one hop per
// owner), so a forwarding loop between misconfigured replicas dies at the
// bound instead of circulating.
const MaxForwardAttempts = 8

// ForwardedTuneRequest is the replica-to-replica wire envelope: what a
// non-owner replica POSTs to the owning replica's /v1/cluster/tune when it
// proxies a client request. Origin names the replica that accepted the
// client connection (for metrics and loop diagnosis); Attempt counts the
// forwards this request has survived. The receiver always serves the inner
// description locally — it never re-forwards — so the envelope carries no
// routing state beyond those two fields.
type ForwardedTuneRequest struct {
	Origin  string             `json:"origin"`
	Attempt int                `json:"attempt,omitempty"`
	Network NetworkDescription `json:"network"`
}

// maxForwardOrigin bounds the advertised origin address length on the wire.
const maxForwardOrigin = 256

// Validate applies the same hardening to the envelope that the inner
// description already gets: bounded fields, nothing optional left unchecked.
func (f ForwardedTuneRequest) Validate() error {
	if f.Origin == "" {
		return fmt.Errorf("repro: forwarded request: missing origin")
	}
	if len(f.Origin) > maxForwardOrigin {
		return fmt.Errorf("repro: forwarded request: origin longer than %d bytes", maxForwardOrigin)
	}
	if f.Attempt < 0 || f.Attempt > MaxForwardAttempts {
		return fmt.Errorf("repro: forwarded request: attempt %d outside [0, %d]", f.Attempt, MaxForwardAttempts)
	}
	return f.Network.Validate()
}

// ParseForwardedTuneRequest decodes and validates a peer-forwarded tune
// request with the same hardening as ParseNetworkDescription: unknown
// fields, trailing data and out-of-range values are rejected, no input
// panics (the decoder is fuzzed), and the inner description comes back with
// defaults filled.
func ParseForwardedTuneRequest(data []byte) (ForwardedTuneRequest, error) {
	var f ForwardedTuneRequest
	if err := decodeWire(data, &f, (*wireScanner).forwarded); err != nil {
		return ForwardedTuneRequest{}, fmt.Errorf("repro: forwarded request: %w", err)
	}
	f.Network.normalize()
	if err := f.Validate(); err != nil {
		return ForwardedTuneRequest{}, err
	}
	return f, nil
}

// ConfigDescription is the wire form of a tuned configuration.
type ConfigDescription struct {
	TileX          int `json:"tile_x"`
	TileY          int `json:"tile_y"`
	TileZ          int `json:"tile_z"`
	ThreadsX       int `json:"threads_x"`
	ThreadsY       int `json:"threads_y"`
	ThreadsZ       int `json:"threads_z"`
	SharedPerBlock int `json:"shared_per_block"`
	Layout         int `json:"layout"`
	WinogradE      int `json:"winograd_e,omitempty"`
}

// DescribeConfig wraps a configuration for the wire.
func DescribeConfig(c Config) ConfigDescription {
	return ConfigDescription{TileX: c.TileX, TileY: c.TileY, TileZ: c.TileZ,
		ThreadsX: c.ThreadsX, ThreadsY: c.ThreadsY, ThreadsZ: c.ThreadsZ,
		SharedPerBlock: c.SharedPerBlock, Layout: int(c.Layout), WinogradE: c.WinogradE}
}

// Config converts the wire form back to the engine's configuration type.
func (d ConfigDescription) Config() Config {
	return Config{TileX: d.TileX, TileY: d.TileY, TileZ: d.TileZ,
		ThreadsX: d.ThreadsX, ThreadsY: d.ThreadsY, ThreadsZ: d.ThreadsZ,
		SharedPerBlock: d.SharedPerBlock, Layout: tensor.Layout(d.Layout),
		WinogradE: d.WinogradE}
}

// VerdictDescription is the wire form of one layer's tuning outcome.
type VerdictDescription struct {
	Layer   string            `json:"layer"`
	Repeat  int               `json:"repeat"`
	Kind    string            `json:"kind"` // "direct" | "winograd" | "fft" | "igemm"
	Config  ConfigDescription `json:"config"`
	Seconds float64           `json:"seconds"`
	// GFLOPS is the layer's useful rate at Seconds: its direct-algorithm
	// flops (shapes.ConvShape.FLOPs) per second, in 1e9, on every tier and
	// for every kind, so a faster verdict always reads a higher rate.
	GFLOPS float64 `json:"gflops"`
	// Shared reports that the verdict came without running a fresh search
	// here: a cache hit, or deduplication onto a concurrent identical
	// search (possibly another client's).
	Shared bool `json:"shared"`
	// Partial reports that this layer's search was cut short by the
	// server's request timeout: the config is best-so-far, not converged.
	// The server persists the truncated search state, so re-POSTing the
	// same request continues (and eventually completes) the search.
	Partial bool `json:"partial,omitempty"`
	// Tier is the verdict's provenance: "measured" (a real search ran),
	// "analytic" (a measurement-free estimate from the I/O-lower-bound time
	// model, served when the server degrades under overload, a tripped
	// measurement breaker, or a deadline), or "refined" (a measured upgrade
	// of a previously analytic answer — re-POST served it from the cache
	// the background refinement queue filled).
	Tier string `json:"tier"`
}

// DescribeVerdicts wraps a verdict list for the wire.
func DescribeVerdicts(verdicts []LayerVerdict) []VerdictDescription {
	out := make([]VerdictDescription, len(verdicts))
	for i, v := range verdicts {
		r := v.Layer.Repeat
		if r < 1 {
			r = 1
		}
		out[i] = VerdictDescription{Layer: v.Layer.Name, Repeat: r,
			Kind: v.Kind.String(), Config: DescribeConfig(v.Config),
			Seconds: v.M.Seconds, GFLOPS: v.Layer.Shape.GFLOPS(v.M.Seconds), Shared: v.Shared,
			Partial: v.Partial, Tier: v.Tier.String()}
	}
	return out
}

// TuneResponse is what POST /v1/tune returns: the per-layer verdicts and
// the repeat-weighted end-to-end network time.
type TuneResponse struct {
	Arch           string               `json:"arch"`
	Verdicts       []VerdictDescription `json:"verdicts"`
	NetworkSeconds float64              `json:"network_seconds"`
	// Partial is true when any verdict is partial — the request hit the
	// server's -request-timeout and the response is best-so-far. Re-POST
	// the identical request to continue the persisted searches (the server
	// runs with -resume, which -request-timeout needs).
	Partial bool `json:"partial,omitempty"`
	// Tier is "analytic" when every verdict is analytic — the whole
	// response is a measurement-free estimate (the server was overloaded or
	// its measurement breaker open). Re-POST later for measured verdicts;
	// the background refinement queue measures analytically-served requests
	// as budget frees up. Empty otherwise.
	Tier string `json:"tier,omitempty"`
}
