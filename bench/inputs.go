package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro"
	"repro/internal/autotune"
	"repro/internal/models"
)

// network is one request the harness can send: the wire body and, for the
// oracle, the description it encodes.
type network struct {
	name string
	body []byte
	desc repro.NetworkDescription
}

func newNetwork(name string, layers []autotune.NetworkLayer, opts *repro.RequestOptions) (network, error) {
	d := repro.DescribeNetwork(archName, layers)
	d.Name = name
	d.Options = opts
	body, err := json.Marshal(d)
	if err != nil {
		return network{}, fmt.Errorf("encode %s: %w", name, err)
	}
	// The daemon only ever sees the body; parse it back so the oracle
	// checks against exactly what was sent.
	parsed, err := repro.ParseNetworkDescription(body)
	if err != nil {
		return network{}, fmt.Errorf("%s does not parse: %w", name, err)
	}
	return network{name: name, body: body, desc: parsed}, nil
}

// zooSize is the number of fixture networks.
const zooSize = 6

// zoo is the six fixtures, always in this order. The order decides which
// layer families tune cold and which warm-start off them: over ten shuffles
// it moved a cold pass's measurement count by ±5% and its network time by
// ±1.5%, more than the regressions those two metrics exist to catch. So
// the seed does not shuffle the zoo; it only tags the network and layer
// names, which the daemon parses and echoes. MobileNetV1 asks for the FFT
// and implicit-GEMM kinds: the grouped, mixed-kind path. The smoke test's toy
// size pins the per-layer budget (budget > 0) and keeps only each network's
// first maxLayers layers (maxLayers > 0).
func zoo(seed int64, budget, maxLayers int) ([]network, error) {
	fixtures := []struct {
		name   string
		layers []autotune.NetworkLayer
		kinds  []string
	}{
		{"alexnet", models.AlexNet().NetworkLayers(), nil},
		{"vgg19", models.VGG19().NetworkLayers(), nil},
		{"resnet18", models.ResNet18().NetworkLayers(), nil},
		{"squeezenet", models.SqueezeNet().NetworkLayers(), nil},
		{"inceptionv3", models.InceptionV3().NetworkLayers(), nil},
		{"mobilenetv1", models.MobileNetV1().NetworkLayers(), []string{"fft", "igemm"}},
	}
	out := make([]network, len(fixtures))
	for i, f := range fixtures {
		layers := append([]autotune.NetworkLayer(nil), f.layers...)
		if maxLayers > 0 && len(layers) > maxLayers {
			layers = layers[:maxLayers]
		}
		for j := range layers {
			layers[j].Name = fmt.Sprintf("s%d.%s", seed, layers[j].Name)
		}
		var opts *repro.RequestOptions
		if budget > 0 || f.kinds != nil {
			opts = &repro.RequestOptions{Budget: budget, Kinds: f.kinds}
		}
		n, err := newNetwork(fmt.Sprintf("%s-s%d", f.name, seed), layers, opts)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// novelNetworks builds count networks that share no layer shape with the
// zoo, so a daemon that holds the zoo still tunes or scans them whole: 2 or 3
// unit-stride layers each, channels from {16,32,64,128,256}, image from
// {7,14,28,56}, kernel from {1,3,5}. What a network costs to tune or to scan
// depends on its layer count, kernels (a 3x3 layer also gets a Winograd
// search) and shapes, and the metrics fed by these networks are means over
// them, so the seed must not decide how much work the set holds: layer counts
// alternate, kernels rotate, and the layers are the same for every seed — the
// first count*5/2 shapes, a third of each kernel, of decks shuffled once and
// for all. The seed decides which layers meet in which network, and in what
// order; no two layers of the set are alike while it holds at most 300.
// budget > 0 pins the per-layer budget.
func novelNetworks(rng *rand.Rand, zoo []network, count, budget int) ([]network, error) {
	chans := []int{16, 32, 64, 128, 256}
	sizes := []int{7, 14, 28, 56}
	kernels := []int{1, 3, 5}
	taken := make(map[repro.Shape]bool)
	for _, n := range zoo {
		for _, l := range n.desc.NetworkLayers() {
			taken[l.Shape] = true
		}
	}
	total := 2*count + count/2
	per := (total + len(kernels) - 1) / len(kernels)
	fixed := rand.New(rand.NewSource(1))
	decks := make([][]repro.Shape, len(kernels))
	for d, k := range kernels {
		var deck []repro.Shape
		for _, cin := range chans {
			for _, cout := range chans {
				for _, hw := range sizes {
					s, err := repro.NewShape(1, cin, hw, cout, k, 1, k/2)
					if err != nil {
						return nil, err
					}
					if !taken[s] {
						deck = append(deck, s)
					}
				}
			}
		}
		fixed.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		deck = deck[:min(per, len(deck))]
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		decks[d] = deck
	}
	var opts *repro.RequestOptions
	if budget > 0 {
		opts = &repro.RequestOptions{Budget: budget}
	}
	out := make([]network, count)
	dealt := 0
	for i := range out {
		layers := make([]autotune.NetworkLayer, 2+i%2)
		for j := range layers {
			deck := decks[dealt%len(decks)]
			layers[j] = autotune.NetworkLayer{Name: fmt.Sprintf("conv%d", j),
				Shape: deck[dealt/len(decks)%len(deck)], Repeat: 1}
			dealt++
		}
		var err error
		if out[i], err = newNetwork(fmt.Sprintf("novel-%d", i), layers, opts); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tripNetwork is the smallest request, one 3x3 layer, two searches:
// shed-analytic sends it into the dead backend to open the breaker, and
// cold-zoo's set-up tunes it as a new daemon's first request.
func tripNetwork() (network, error) {
	s, err := repro.NewShape(1, 64, 28, 64, 3, 1, 1)
	if err != nil {
		return network{}, err
	}
	return newNetwork("trip", []autotune.NetworkLayer{{Name: "conv0", Shape: s, Repeat: 1}}, nil)
}

// draw is one request of a window's sequence: which network, and on a
// cluster which replica it is sent to.
type draw struct {
	net     int
	replica int
}

// plan is a window's input: the networks and the order they are requested
// in. Both are a pure function of the workload and the seed.
type plan struct {
	nets []network // the zoo first
	seq  []draw
}

// blockPlan builds a sequence of length requests out of shuffled blocks, so
// that any long prefix holds the same mix whatever the seed: each block is
// every zoo network zooReps times plus the next novelPer of nets' novel
// networks (cycling through them), in seeded order, each request aimed at a
// seeded replica.
func blockPlan(rng *rand.Rand, nets []network, length, zooReps, novelPer, replicas int) plan {
	p := plan{nets: nets}
	novel := 0
	for len(p.seq) < length {
		var block []int
		for r := 0; r < zooReps; r++ {
			for z := 0; z < zooSize; z++ {
				block = append(block, z)
			}
		}
		for n := 0; n < novelPer; n++ {
			block = append(block, zooSize+novel%(len(nets)-zooSize))
			novel++
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, n := range block {
			p.seq = append(p.seq, draw{net: n, replica: rng.Intn(replicas)})
		}
	}
	return p
}
