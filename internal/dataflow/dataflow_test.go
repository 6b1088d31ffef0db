package dataflow

import (
	"fmt"
	"math/rand"
	"testing"

	"fusecu/internal/op"
)

var mm = op.MatMul{M: 64, K: 32, L: 48}

func TestDimExtent(t *testing.T) {
	if DimM.Extent(mm) != 64 || DimK.Extent(mm) != 32 || DimL.Extent(mm) != 48 {
		t.Fatal("wrong extents")
	}
}

func TestTensorDims(t *testing.T) {
	cases := map[Tensor][2]Dim{
		TensorA: {DimM, DimK},
		TensorB: {DimK, DimL},
		TensorC: {DimM, DimL},
	}
	for tensor, want := range cases {
		if got := tensor.Dims(); got != want {
			t.Errorf("%s dims = %v, want %v", tensor, got, want)
		}
	}
}

func TestTensorHasDim(t *testing.T) {
	if !TensorA.HasDim(DimM) || TensorA.HasDim(DimL) {
		t.Fatal("TensorA dim membership wrong")
	}
	if !TensorC.HasDim(DimL) || TensorC.HasDim(DimK) {
		t.Fatal("TensorC dim membership wrong")
	}
}

func TestTensorSize(t *testing.T) {
	if TensorA.Size(mm) != 64*32 || TensorB.Size(mm) != 32*48 || TensorC.Size(mm) != 64*48 {
		t.Fatal("wrong tensor sizes")
	}
}

func TestTensorsWithAndWithoutDim(t *testing.T) {
	for _, d := range Dims() {
		with := TensorsWithDim(d)
		without := TensorWithoutDim(d)
		if !with[0].HasDim(d) || !with[1].HasDim(d) {
			t.Errorf("TensorsWithDim(%s) returned a tensor without %s", d, d)
		}
		if without.HasDim(d) {
			t.Errorf("TensorWithoutDim(%s) = %s contains %s", d, without, d)
		}
		if with[0] == with[1] || with[0] == without || with[1] == without {
			t.Errorf("dim %s tensor partition not disjoint", d)
		}
	}
}

func TestTilingTileAndWithTile(t *testing.T) {
	ti := Tiling{TM: 4, TK: 8, TL: 2}
	if ti.Tile(DimM) != 4 || ti.Tile(DimK) != 8 || ti.Tile(DimL) != 2 {
		t.Fatal("Tile getter wrong")
	}
	ti2 := ti.WithTile(DimK, 16)
	if ti2.TK != 16 || ti.TK != 8 {
		t.Fatal("WithTile must copy")
	}
}

func TestTilingClamp(t *testing.T) {
	ti := Tiling{TM: 1000, TK: 0, TL: -3}.Clamp(mm)
	if ti.TM != 64 || ti.TK != 1 || ti.TL != 1 {
		t.Fatalf("Clamp = %+v", ti)
	}
}

func TestTilingValidate(t *testing.T) {
	if err := (Tiling{TM: 64, TK: 1, TL: 48}).Validate(mm); err != nil {
		t.Fatalf("valid tiling rejected: %v", err)
	}
	if err := (Tiling{TM: 65, TK: 1, TL: 1}).Validate(mm); err == nil {
		t.Fatal("oversized tile accepted")
	}
	if err := (Tiling{TM: 1, TK: 0, TL: 1}).Validate(mm); err == nil {
		t.Fatal("zero tile accepted")
	}
}

func TestTrips(t *testing.T) {
	ti := Tiling{TM: 10, TK: 32, TL: 7}
	if ti.Trips(DimM, mm) != 7 { // ceil(64/10)
		t.Fatalf("Trips M = %d", ti.Trips(DimM, mm))
	}
	if ti.Trips(DimK, mm) != 1 {
		t.Fatalf("Trips K = %d", ti.Trips(DimK, mm))
	}
	if ti.Trips(DimL, mm) != 7 { // ceil(48/7)
		t.Fatalf("Trips L = %d", ti.Trips(DimL, mm))
	}
}

func TestFootprintMatchesPaperConstraint(t *testing.T) {
	// Eq. 2: T_M·T_K + T_K·T_L + T_M·T_L
	ti := Tiling{TM: 3, TK: 5, TL: 7}
	want := int64(3*5 + 5*7 + 3*7)
	if got := ti.Footprint(); got != want {
		t.Fatalf("Footprint = %d, want %d", got, want)
	}
}

func TestUntiled(t *testing.T) {
	ti := Tiling{TM: 64, TK: 8, TL: 48}
	if !ti.Untiled(DimM, mm) || ti.Untiled(DimK, mm) || !ti.Untiled(DimL, mm) {
		t.Fatal("Untiled detection wrong")
	}
}

func TestOrderValidate(t *testing.T) {
	for _, o := range AllOrders() {
		if err := o.Validate(); err != nil {
			t.Errorf("canonical order %v rejected: %v", o, err)
		}
	}
	if err := (Order{DimM, DimM, DimK}).Validate(); err == nil {
		t.Fatal("duplicate order accepted")
	}
	if err := (Order{DimM, DimK, Dim(9)}).Validate(); err == nil {
		t.Fatal("invalid dim accepted")
	}
}

func TestAllOrdersAreDistinct(t *testing.T) {
	seen := map[Order]bool{}
	for _, o := range AllOrders() {
		if seen[o] {
			t.Fatalf("duplicate order %v", o)
		}
		seen[o] = true
	}
	if len(seen) != 6 {
		t.Fatalf("expected 6 permutations, got %d", len(seen))
	}
}

func TestOrderStationary(t *testing.T) {
	cases := []struct {
		o    Order
		want Tensor
		kind StationaryKind
	}{
		{OrderOS, TensorC, OS},
		{OrderOSSwap, TensorC, OS},
		{OrderWS, TensorB, WS},
		{OrderWSSwap, TensorB, WS},
		{OrderIS, TensorA, IS},
		{OrderISSwap, TensorA, IS},
	}
	for _, c := range cases {
		if got := c.o.Stationary(); got != c.want {
			t.Errorf("order %v stationary = %s, want %s", c.o, got, c.want)
		}
		if got := c.o.Stationary().Kind(); got != c.kind {
			t.Errorf("order %v kind = %s, want %s", c.o, got, c.kind)
		}
	}
}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range []StationaryKind{OS, WS, IS} {
		if got := k.KindTensor().Kind(); got != k {
			t.Errorf("kind %s round-trips to %s", k, got)
		}
	}
}

func TestOrderPosition(t *testing.T) {
	o := OrderOS // M, L, K
	if o.Position(DimM) != 0 || o.Position(DimL) != 1 || o.Position(DimK) != 2 {
		t.Fatal("Position wrong")
	}
	if o.Innermost() != DimK {
		t.Fatal("Innermost wrong")
	}
}

func TestDataflowValidate(t *testing.T) {
	df := Dataflow{Order: OrderOS, Tiling: Tiling{TM: 8, TK: 1, TL: 8}}
	if err := df.Validate(mm); err != nil {
		t.Fatalf("valid dataflow rejected: %v", err)
	}
	bad := Dataflow{Order: Order{DimM, DimM, DimK}, Tiling: Tiling{TM: 1, TK: 1, TL: 1}}
	if err := bad.Validate(mm); err == nil {
		t.Fatal("invalid order accepted")
	}
}

func TestFitsBuffer(t *testing.T) {
	df := Dataflow{Order: OrderOS, Tiling: Tiling{TM: 8, TK: 1, TL: 8}}
	if !df.FitsBuffer(80) { // 8+8+64 = 80
		t.Fatal("exact fit rejected")
	}
	if df.FitsBuffer(79) {
		t.Fatal("overflow accepted")
	}
}

func TestUntiledDims(t *testing.T) {
	df := Dataflow{Order: OrderOS, Tiling: Tiling{TM: 8, TK: 32, TL: 48}}
	got := df.UntiledDims(mm)
	if len(got) != 2 || got[0] != DimK || got[1] != DimL {
		t.Fatalf("UntiledDims = %v", got)
	}
}

func TestStringersDoNotPanic(t *testing.T) {
	_ = DimM.String() + TensorA.String() + OrderOS.String() + OS.String()
	_ = SingleNRA.String() + TwoNRA.String() + ThreeNRA.String() + NRAZero.String()
	df := Dataflow{Order: OrderWS, Tiling: Tiling{TM: 1, TK: 2, TL: 3}}
	if df.String() == "" {
		t.Fatal("empty dataflow string")
	}
}

// TestOrderStringMatchesFormatting pins Order.String, served from a table
// for the six valid orders, byte for byte against the formatting it
// replaced, over every order of dims up to one past the last valid dim
// (invalid and duplicate orders included).
func TestOrderStringMatchesFormatting(t *testing.T) {
	want := map[Order]string{
		OrderOS: "M→L→K", OrderOSSwap: "L→M→K",
		OrderWS: "K→L→M", OrderWSSwap: "L→K→M",
		OrderIS: "M→K→L", OrderISSwap: "K→M→L",
	}
	for _, o := range AllOrders() {
		if got := o.String(); got != want[o] {
			t.Errorf("%v.String() = %q, want %q", [3]Dim(o), got, want[o])
		}
	}
	for a := Dim(0); a <= numDims; a++ {
		for b := Dim(0); b <= numDims; b++ {
			for c := Dim(0); c <= numDims; c++ {
				o := Order{a, b, c}
				if got, old := o.String(), fmt.Sprintf("%s→%s→%s", a, b, c); got != old {
					t.Errorf("%v.String() = %q, want %q", [3]Dim(o), got, old)
				}
			}
		}
	}
	if got, old := (Order{DimM, 200, DimK}).String(), "M→Dim(200)→K"; got != old {
		t.Errorf("String() = %q, want %q", got, old)
	}
}

// NextPlateauTile steps exactly through the tiles of the quantized lattice
// whose trip count differs from the previous lattice tile's.
func TestNextPlateauTileVisitsLeftEndpoints(t *testing.T) {
	type walk struct{ ext, q, limit int }
	cases := []walk{
		{1, 1, 1}, {7, 1, 7}, {100, 1, 100}, {100, 3, 100}, {100, 8, 40},
		{100, 128, 100}, {1000, 7, 999}, {4096, 128, 512}, {11008, 1, 11008},
		{262144, 1, 262144}, {300, 8, 300},
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		ext := rng.Intn(5000) + 1
		cases = append(cases, walk{ext, rng.Intn(150) + 1, rng.Intn(ext) + 1})
	}
	for _, tc := range cases {
		var want []int
		prev := -1
		for tile := min(tc.q, tc.limit); ; tile = min(tile+tc.q, tc.limit) {
			if n := (tc.ext + tile - 1) / tile; n != prev {
				want = append(want, tile)
				prev = n
			}
			if tile == tc.limit {
				break
			}
		}
		var got []int
		for tile, ok := min(tc.q, tc.limit), true; ok; tile, ok = NextPlateauTile(tc.ext, tile, tc.q, tc.limit) {
			got = append(got, tile)
		}
		if len(got) != len(want) {
			t.Fatalf("ext=%d q=%d limit=%d: walk %v, left endpoints %v", tc.ext, tc.q, tc.limit, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("ext=%d q=%d limit=%d: walk %v, left endpoints %v", tc.ext, tc.q, tc.limit, got, want)
			}
		}
	}
}
