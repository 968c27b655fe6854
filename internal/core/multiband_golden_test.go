package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/vgrid"
)

// multibandGolden pins the several-bands-per-processor schedule (paper
// Remark 2) bit for bit: the SHA-256 of the solution's float bits plus the
// iteration count, virtual time, traffic and flop totals.
type multibandGolden struct {
	name  string
	n     int
	seed  int64
	procs int
	o     Options
	// platform builds the grid (nil: a flat LAN of procs hosts).
	platform func() (*vgrid.Platform, []*vgrid.Host)

	xSHA  string
	iters int
	time  float64
	msgs  int64
	bytes int64
	flops float64
}

var multibandGoldens = []multibandGolden{
	{name: "sync-2bpp", n: 400, seed: 70, procs: 3, o: Options{Tol: 1e-10, BandsPerProc: 2},
		xSHA:  "80ac280fb9aef2d0614da801e37af7423f2cc5586206cc9a0dafe15f4c2ff36c",
		iters: 16, time: 0.003875565000000005, msgs: 164, bytes: 24032, flops: 298778},
	{name: "sync-3bpp-overlap8", n: 360, seed: 71, procs: 3, o: Options{Tol: 1e-9, BandsPerProc: 3, Overlap: 8},
		xSHA:  "96a6fb514bdcd9c6a281e5a2622909e556cd814012c8cf5a4472ef420bc02f5b",
		iters: 6, time: 0.0017414679999999995, msgs: 66, bytes: 12000, flops: 200746},
	{name: "async-2bpp", n: 400, seed: 72, procs: 4, o: Options{Tol: 1e-9, BandsPerProc: 2, Async: true},
		xSHA:  "909ffbe6aad8c5c429c929ca1e5e767cbbaabafb38de97e9feb86624730063ab",
		iters: 37, time: 0.003502048999999999, msgs: 303, bytes: 53808, flops: 548601},
	{name: "async-2bpp-twosite", n: 600, seed: 73, o: Options{Tol: 1e-9, BandsPerProc: 2, Async: true},
		platform: func() (*vgrid.Platform, []*vgrid.Host) { return twoSitePlatform(2, 2) },
		xSHA:     "4ef5ea33e106ad0b14cb5b7f3d78a30fd80bab0df02ccf8525a324ba08d82db2",
		iters:    365, time: 0.10948082800000006, msgs: 2813, bytes: 504960, flops: 7.049326e+06},
	{name: "average-overlap10", n: 300, seed: 74, procs: 3, o: Options{Tol: 1e-9, BandsPerProc: 2, Overlap: 10, Scheme: WeightAverage},
		xSHA:  "dce5d9b9abcf42ffd72278ce5923715e4d7ec320d8a235f67c5746069880c764",
		iters: 6, time: 0.0015797830000000004, msgs: 64, bytes: 9632, flops: 169152},
	{name: "one-rank-4bpp", n: 200, seed: 75, procs: 1, o: Options{Tol: 1e-10, BandsPerProc: 4},
		xSHA:  "23a403d8c86660e5138336af1b27d8c8bb6e8a155e4b12e0080210187ef3f9c6",
		iters: 15, time: 0.000140948, msgs: 0, bytes: 0, flops: 140948},
}

// floatsSHA hashes the IEEE-754 bits of x.
func floatsSHA(x []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMultibandGolden: the multiband schedule — iterates, virtual time,
// messages, bytes and flops — is pinned exactly.
func TestMultibandGolden(t *testing.T) {
	for _, g := range multibandGoldens {
		t.Run(g.name, func(t *testing.T) {
			a := gen.DiagDominant(gen.DiagDominantOpts{N: g.n, Seed: g.seed})
			b, _ := gen.RHSForSolution(a)
			var pl *vgrid.Platform
			var hosts []*vgrid.Host
			if g.platform != nil {
				pl, hosts = g.platform()
			} else {
				pl, hosts = lanPlatform(g.procs, 0)
			}
			res, err := Solve(pl, hosts, a, b, g.o)
			if err != nil {
				t.Fatal(err)
			}
			got := multibandGolden{xSHA: floatsSHA(res.X), iters: res.Iterations, time: res.Time,
				msgs: res.MsgsSent, bytes: res.BytesSent, flops: res.TotalFlops}
			if got.xSHA != g.xSHA || got.iters != g.iters || got.time != g.time ||
				got.msgs != g.msgs || got.bytes != g.bytes || got.flops != g.flops {
				t.Errorf("schedule moved:\n got xSHA: %q, iters: %d, time: %v, msgs: %d, bytes: %d, flops: %v\nwant xSHA: %q, iters: %d, time: %v, msgs: %d, bytes: %d, flops: %v",
					got.xSHA, got.iters, got.time, got.msgs, got.bytes, got.flops,
					g.xSHA, g.iters, g.time, g.msgs, g.bytes, g.flops)
			}
		})
	}
}
