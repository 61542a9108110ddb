package repro

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/models"
	"repro/internal/shapes"
)

// fastPathAgrees reports whether the canonical-subset scan accepts data, and
// fails t if it does and the reference decode does not give the same value.
func fastPathAgrees[T any](t testing.TB, data []byte, scan func(*wireScanner, *T) bool) bool {
	t.Helper()
	var fast, ref T
	if !scanCanonical(data, &fast, scan) {
		return false
	}
	if err := decodeStrict(data, &ref); err != nil || !reflect.DeepEqual(fast, ref) {
		t.Fatalf("fast path decodes %q to %+v; the reference gives %+v, %v", data, fast, ref, err)
	}
	return true
}

// wireBodies is what clients send: the six zoo networks as the benchmark
// harness encodes them, the 24 novel three-layer networks of internal/tuned's
// novelBodies, and one layer with every field set.
func wireBodies(t *testing.T) [][]byte {
	zoo := []struct {
		layers []NetworkLayer
		kinds  []string
	}{
		{models.AlexNet().NetworkLayers(), nil},
		{models.VGG19().NetworkLayers(), nil},
		{models.ResNet18().NetworkLayers(), nil},
		{models.SqueezeNet().NetworkLayers(), nil},
		{models.InceptionV3().NetworkLayers(), nil},
		{models.MobileNetV1().NetworkLayers(), []string{"fft", "igemm"}},
	}
	var descs []NetworkDescription
	for i, z := range zoo {
		d := DescribeNetwork("V100", z.layers)
		d.Name = fmt.Sprintf("zoo-s%d", i)
		d.Options = &RequestOptions{Budget: 16, Kinds: z.kinds}
		descs = append(descs, d)
	}
	for n := 0; n < 24; n++ {
		var layers []NetworkLayer
		for l := 0; l < 3; l++ {
			k, ch := []int{1, 3, 5}[l], 8*(n+1)+1
			layers = append(layers, NetworkLayer{Name: fmt.Sprintf("n%d.l%d", n, l), Repeat: 1,
				Shape: shapes.ConvShape{Batch: 1, Cin: ch, Cout: ch + l, Hin: 14, Win: 14,
					Hker: k, Wker: k, Strid: 1, Pad: k / 2}})
		}
		d := DescribeNetwork("V100", layers)
		d.Options = &RequestOptions{Budget: 16}
		descs = append(descs, d)
	}
	off := false
	descs = append(descs, NetworkDescription{Arch: "TitanX", Name: "every field",
		Layers: []LayerDescription{{Name: "l", Batch: 2, Cin: 8, Hin: 9, Win: 10, Cout: 16, Hker: 3,
			Wker: 5, Stride: 2, Pad: 1, Groups: 4, Repeat: 3}},
		Options: &RequestOptions{Budget: 7, Seed: 123456789012345678, Winograd: &off, Kinds: []string{"winograd"}}})
	var out [][]byte
	for _, d := range descs {
		body, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, body)
	}
	return out
}

// The fast path takes every body a client or peer replica sends, and gives
// what the reference decode gives.
func TestWireFastPathMatchesReference(t *testing.T) {
	for _, body := range wireBodies(t) {
		if !fastPathAgrees(t, body, (*wireScanner).network) {
			t.Errorf("fast path declined %.80s", body)
		}
		env := []byte(`{"origin":"http://127.0.0.1:9911","attempt":1,"network":` + string(body) + `}`)
		if !fastPathAgrees(t, env, (*wireScanner).forwarded) {
			t.Errorf("fast path declined the envelope of %.80s", body)
		}
	}
	// Whitespace of the subset, as curl users type it.
	pretty := []byte("{\n\t\"arch\": \"V100\",\n\t\"layers\": [ {\"cin\": 64, \"hin\": 28, \"cout\": 64, \"hker\": 3, \"pad\": 1} ]\n}\n")
	if !fastPathAgrees(t, pretty, (*wireScanner).network) {
		t.Errorf("fast path declined %q", pretty)
	}
}

// Every input outside the canonical subset is decoded by the reference alone:
// the fast path declines it, and the result — value or error text — is the
// reference's, for a description and for the same description forwarded.
func TestWireNonCanonicalTakesReference(t *testing.T) {
	layer := `{"cin":8,"hin":8,"cout":8,"hker":3,"pad":1}`
	net := func(fields string) string { return `{"arch":"V100",` + fields + `}` }
	withLayer := func(fields string) string {
		return net(`"layers":[{"cin":8,"hin":8,"cout":8,"hker":3,` + fields + `}]`)
	}
	withOpts := func(fields string) string { return net(`"layers":[` + layer + `],"options":{` + fields + `}`) }
	bodies := []string{
		// strings
		net(`"name":"a\"b","layers":[` + layer + `]`),
		net(`"name":"\u0041","layers":[` + layer + `]`),
		net(`"name":"résnet","layers":[` + layer + `]`),
		net(`"name":"tab\there","layers":[` + layer + `]`),
		net(`"name":"del` + "\x7f" + `","layers":[` + layer + `]`),
		// keys the reference folds or rejects
		withLayer(`"CIN":8`),
		withLayer(`"ſtride":2`),
		net(`"Layers":[` + layer + `]`),
		net(`"layres":[` + layer + `]`),
		// null in each field kind
		`null`,
		`{"arch":null,"layers":[` + layer + `]}`,
		withLayer(`"pad":null`),
		net(`"layers":null`),
		net(`"layers":[null]`),
		withOpts(`"winograd":null`),
		withOpts(`"kinds":null`),
		withOpts(`"kinds":[null]`),
		net(`"layers":[` + layer + `],"options":null`),
		// duplicate keys
		net(`"arch":"TitanX","layers":[` + layer + `]`),
		net(`"layers":[` + layer + `],"layers":[` + layer + `,` + layer + `]`),
		withLayer(`"pad":1,"pad":2`),
		net(`"layers":[` + layer + `],"options":{"budget":4},"options":{"seed":5}`),
		// numbers
		withLayer(`"pad":1.0`),
		withLayer(`"pad":1e2`),
		withLayer(`"pad":-0`),
		withLayer(`"pad":01`),
		withOpts(`"seed":1234567890123456789`),
		withOpts(`"seed":12345678901234567890`),
		withLayer(`"pad":"1"`),
		withOpts(`"winograd":1`),
		withOpts(`"winograd":truex`),
		// empty arrays and objects
		net(`"layers":[]`),
		withOpts(`"kinds":[]`),
		withOpts(``),
		net(`"layers":[{}]`),
		// whitespace and framing
		"{\r\n\"arch\":\"V100\",\r\n\"layers\":[" + layer + "]}",
		net(`"layers":[`+layer+`]`) + ` extra`,
		net(`"layers":[`+layer+`]`) + `{}`,
		net(`"layers":[` + layer + `],`),
		`{"arch":"V100"`,
		`[`,
		``,
	}
	for _, body := range bodies {
		refersToReference(t, []byte(body), (*wireScanner).network)
		refersToReference(t, []byte(`{"origin":"x","network":`+body+`}`), (*wireScanner).forwarded)
	}
	for _, env := range []string{`{"origin":null,"network":` + net(`"layers":[`+layer+`]`) + `}`,
		`{"origin":"x","attempt":null,"network":` + net(`"layers":[`+layer+`]`) + `}`,
		`{"origin":"x","network":null}`, `{"origin":"x","origin":"y"}`, `{"origin":"x","hops":1}`} {
		refersToReference(t, []byte(env), (*wireScanner).forwarded)
	}
}

// refersToReference fails t unless the fast path declines data and
// decodeWire gives the reference's value and error text for it.
func refersToReference[T any](t *testing.T, data []byte, scan func(*wireScanner, *T) bool) {
	t.Helper()
	if fastPathAgrees(t, data, scan) {
		t.Errorf("fast path accepted %q", data)
	}
	var got, want T
	gotErr, wantErr := decodeWire(data, &got, scan), decodeStrict(data, &want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Errorf("%q: decoded to %+v, %v; the reference gives %+v, %v", data, got, gotErr, want, wantErr)
	}
}
