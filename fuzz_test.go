package repro

import (
	"encoding/json"
	"testing"
)

// The network-description decoder is the service's front door and parses
// whatever a client POSTs. Under fuzzing it must either return a validated
// description or an error — never panic — and anything it accepts must
// survive a marshal/reparse round trip unchanged (the wire format is
// self-consistent). Whatever the reflection-free fast path accepts, it
// decodes exactly as the encoding/json reference does.
func FuzzParseNetworkDescription(f *testing.F) {
	f.Add([]byte(`{"arch":"V100","layers":[{"cin":64,"hin":28,"cout":64,"hker":3,"pad":1}],"options":{"budget":16}}`))
	f.Add([]byte(`{"arch":"TitanX","name":"resnet18","layers":[{"name":"conv1","batch":1,"cin":3,"hin":224,"win":224,"cout":64,"hker":7,"wker":7,"stride":2,"pad":3,"repeat":1}],"options":{"budget":400,"seed":7,"winograd":false}}`))
	f.Add([]byte(`{"arch":"","layers":[]}`))
	f.Add([]byte(`{"arch":"V100","layers":[{"cin":-1,"hin":8,"cout":8,"hker":3}]}`))
	f.Add([]byte(`{"arch":"V100","layers":[{"cin":65537,"hin":8,"cout":8,"hker":3}]}`))
	f.Add([]byte(`{"arch":"V100","layers":[{"cin":32,"hin":112,"cout":32,"hker":3,"pad":1,"groups":32}],"options":{"kinds":["fft","igemm"]}}`))
	f.Add([]byte(`{"arch":"V100","layers":[{"cin":6,"hin":8,"cout":9,"hker":3,"groups":4}]}`))
	f.Add([]byte(`{"arch":"V100","layers":[{"cin":8,"hin":8,"cout":8,"hker":3}],"options":{"kinds":["karatsuba"]}}`))
	f.Add([]byte(`{"arch":"V100","unknown":true}`))
	f.Add([]byte(`{"arch":"V100","layers":[{"cin":8,"hin":8,"cout":8,"hker":3,"pad":1}]}{}`))
	f.Add([]byte(`{"arch":"V100","layers":[{"cin":8,"hin":8,"cout":8,"hker":3,"pad":1}],"options":{"seed":-5,"winograd":true,"kinds":["igemm","fft","fft"]}}`))
	f.Add([]byte(`{"arch":"V100","layers":[{"cin":8,"hin":8,"cout":8,"hker":3,"pad":1,"pad":2}]}`))
	f.Add([]byte(`[`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		fastPathAgrees(t, data, (*wireScanner).network)
		d, err := ParseNetworkDescription(data)
		if err != nil {
			return
		}
		// Accepted input: the normalized description re-encodes and
		// re-parses to itself.
		again, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("accepted description failed to marshal: %v", err)
		}
		d2, err := ParseNetworkDescription(again)
		if err != nil {
			t.Fatalf("re-encoded description rejected: %v", err)
		}
		if len(d2.Layers) != len(d.Layers) || d2.Arch != d.Arch {
			t.Fatalf("round trip changed the description: %+v != %+v", d2, d)
		}
	})
}

// The forwarded-request decoder parses what peer replicas POST to
// /v1/cluster/tune. A replica's cluster port is as exposed as its client
// port, so the envelope gets the same fuzz contract: no panic, accepted
// envelopes re-encode to themselves, and the fast path agrees with the
// reference.
func FuzzParseForwardedTuneRequest(f *testing.F) {
	f.Add([]byte(`{"origin":"http://127.0.0.1:9911","network":{"arch":"V100","layers":[{"cin":64,"hin":28,"cout":64,"hker":3,"pad":1}],"options":{"budget":16}}}`))
	f.Add([]byte(`{"origin":"http://10.0.0.2:8080","attempt":2,"network":{"arch":"TitanX","layers":[{"cin":3,"hin":224,"cout":64,"hker":7,"stride":2,"pad":3}],"options":{"seed":7,"kinds":["fft"]}}}`))
	f.Add([]byte(`{"network":{"arch":"V100","layers":[{"cin":8,"hin":8,"cout":8,"hker":3}]}}`))
	f.Add([]byte(`{"origin":"x","attempt":-1,"network":{"arch":"V100","layers":[{"cin":8,"hin":8,"cout":8,"hker":3}]}}`))
	f.Add([]byte(`{"origin":"x","attempt":9,"network":{"arch":"V100","layers":[{"cin":8,"hin":8,"cout":8,"hker":3}]}}`))
	f.Add([]byte(`{"origin":"x","network":{"arch":"","layers":[]}}`))
	f.Add([]byte(`{"origin":"x","network":{"arch":"V100","layers":[{"cin":-1,"hin":8,"cout":8,"hker":3}]}}`))
	f.Add([]byte(`{"origin":"x","hops":1,"network":{"arch":"V100","layers":[{"cin":8,"hin":8,"cout":8,"hker":3}]}}`))
	f.Add([]byte(`{"origin":"x","network":{"arch":"V100","layers":[{"cin":8,"hin":8,"cout":8,"hker":3,"pad":1}]}}{}`))
	f.Add([]byte(`{"origin":"x","attempt":1,"network":{"arch":"V100","name":"n\u0041","layers":[{"cin":8,"hin":8,"cout":8,"hker":3,"pad":1}]}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		fastPathAgrees(t, data, (*wireScanner).forwarded)
		fr, err := ParseForwardedTuneRequest(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(fr)
		if err != nil {
			t.Fatalf("accepted envelope failed to marshal: %v", err)
		}
		fr2, err := ParseForwardedTuneRequest(again)
		if err != nil {
			t.Fatalf("re-encoded envelope rejected: %v", err)
		}
		if fr2.Origin != fr.Origin || fr2.Attempt != fr.Attempt ||
			fr2.Network.Arch != fr.Network.Arch || len(fr2.Network.Layers) != len(fr.Network.Layers) {
			t.Fatalf("round trip changed the envelope: %+v != %+v", fr2, fr)
		}
	})
}
