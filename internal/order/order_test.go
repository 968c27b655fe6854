package order

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/sparse"
)

func TestRCMIsPermutation(t *testing.T) {
	a := gen.Poisson2D(8, 9)
	p := RCM(a)
	if !sparse.IsPerm(p) {
		t.Fatalf("RCM did not return a permutation: %v", p)
	}
}

func TestRCMReducesBandwidthOnShuffledBandMatrix(t *testing.T) {
	// Take a narrow band matrix, scramble it, and check RCM recovers a
	// bandwidth close to the original.
	n := 120
	a := gen.Tridiag(n, -1, 4, -1)
	rng := rand.New(rand.NewSource(42))
	shuffle := rng.Perm(n)
	scrambled := a.Permute(shuffle, shuffle)
	if scrambled.Bandwidth() <= 3 {
		t.Skip("shuffle failed to scramble")
	}
	p := RCM(scrambled)
	after := BandAfter(scrambled, p)
	if after >= scrambled.Bandwidth()/4 {
		t.Fatalf("RCM bandwidth %d not much below scrambled %d", after, scrambled.Bandwidth())
	}
}

func TestRCMDisconnectedComponents(t *testing.T) {
	// Two independent 2x2 blocks plus an isolated diagonal vertex.
	co := sparse.NewCOO(5, 5)
	co.Append(0, 1, 1)
	co.Append(1, 0, 1)
	co.Append(2, 3, 1)
	co.Append(3, 2, 1)
	for i := 0; i < 5; i++ {
		co.Append(i, i, 2)
	}
	p := RCM(co.ToCSR())
	if !sparse.IsPerm(p) {
		t.Fatalf("not a permutation: %v", p)
	}
}

func TestRCMSingleVertex(t *testing.T) {
	p := RCM(sparse.Identity(1))
	if len(p) != 1 || p[0] != 0 {
		t.Fatalf("RCM(1x1) = %v", p)
	}
}

func TestMaxTransversalZeroFreeDiagonal(t *testing.T) {
	// Matrix with zero diagonal that needs a row permutation.
	co := sparse.NewCOO(3, 3)
	co.Append(0, 1, 2)
	co.Append(1, 2, 3)
	co.Append(2, 0, 4)
	a := co.ToCSR()
	p, err := MaxTransversal(a)
	if err != nil {
		t.Fatal(err)
	}
	pa := a.Permute(p, nil)
	for i := 0; i < 3; i++ {
		if pa.At(i, i) == 0 {
			t.Fatalf("diagonal (%d,%d) is zero after transversal", i, i)
		}
	}
}

func TestMaxTransversalAlreadyGood(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 40, Seed: 1})
	p, err := MaxTransversal(a)
	if err != nil {
		t.Fatal(err)
	}
	pa := a.Permute(p, nil)
	for i := 0; i < 40; i++ {
		if pa.At(i, i) == 0 {
			t.Fatalf("zero diagonal at %d", i)
		}
	}
}

func TestMaxTransversalStructurallySingular(t *testing.T) {
	// Column 1 is entirely zero: no matching exists.
	co := sparse.NewCOO(2, 2)
	co.Append(0, 0, 1)
	co.Append(1, 0, 1)
	if _, err := MaxTransversal(co.ToCSR()); err != ErrStructurallySingular {
		t.Fatalf("err = %v, want ErrStructurallySingular", err)
	}
}

func TestMaxTransversalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		a := gen.RandomDominant(n, 1+rng.Intn(5), 0.3, rng)
		p, err := MaxTransversal(a)
		if err != nil {
			return false // dominant matrices always have a transversal
		}
		if !sparse.IsPerm(p) {
			return false
		}
		pa := a.Permute(p, nil)
		for i := 0; i < n; i++ {
			if pa.At(i, i) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBandAfterIdentityPerm(t *testing.T) {
	a := gen.Tridiag(10, -1, 2, -1)
	if got := BandAfter(a, nil); got != a.Bandwidth() {
		t.Fatalf("BandAfter(nil) = %d, want %d", got, a.Bandwidth())
	}
	id := make([]int, 10)
	for i := range id {
		id[i] = i
	}
	if got := BandAfter(a, id); got != a.Bandwidth() {
		t.Fatalf("BandAfter(id) = %d, want %d", got, a.Bandwidth())
	}
}

// TestRCMDeterministicTies: a double star has many equal-degree candidates
// in every last BFS level; the pseudo-peripheral search must resolve them
// the same way (smallest index) on every call.
func TestRCMDeterministicTies(t *testing.T) {
	// Hubs 0 and 1 are joined; each carries 16 leaves of degree 1.
	n := 34
	co := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		co.Append(i, i, 4)
	}
	link := func(i, j int) {
		co.Append(i, j, -1)
		co.Append(j, i, -1)
	}
	link(0, 1)
	for k := 2; k < n; k++ {
		link(k%2, k)
	}
	a := co.ToCSR()
	want := RCM(a)
	for rep := 0; rep < 50; rep++ {
		got := RCM(a)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("call %d: perm[%d] = %d, first call gave %d", rep, i, got[i], want[i])
			}
		}
	}
	// From hub 0 the last level is hub 1's leaves (odd indices); the
	// smallest, 3, is the first pseudo-peripheral pick. From 3 the last
	// level is hub 0's leaves, so the search settles on 2, which the
	// reversed Cuthill–McKee order puts last.
	if want[2] != n-1 {
		t.Fatalf("root: perm[2] = %d, want %d", want[2], n-1)
	}
}
