package config

import "testing"

func TestDefaultMatchesTable3(t *testing.T) {
	tm := Default()
	if tm.NetworkLatency != 80 {
		t.Errorf("network latency = %d, want 80", tm.NetworkLatency)
	}
	if tm.LocalMiss != 104 {
		t.Errorf("local miss = %d, want 104", tm.LocalMiss)
	}
	if tm.RemoteMiss != 418 {
		t.Errorf("remote miss = %d, want 418", tm.RemoteMiss)
	}
	if tm.SoftTrap != 3000 {
		t.Errorf("soft trap = %d, want 3000", tm.SoftTrap)
	}
	if tm.TLBShootdown != 300 {
		t.Errorf("TLB shootdown = %d, want 300", tm.TLBShootdown)
	}
}

func TestPageOpCostRange(t *testing.T) {
	tm := Default()
	lo := tm.PageOpCost(0)
	hi := tm.PageOpCost(BlocksPerPage)
	// Table 3: allocation/replacement or relocation spans 3000~11500.
	if lo < 3000 || lo > 4000 {
		t.Errorf("min page op cost = %d, want ~3000", lo)
	}
	if hi < 11000 || hi > 12000 {
		t.Errorf("max page op cost = %d, want ~11500", hi)
	}
}

func TestGatherCostRange(t *testing.T) {
	tm := Default()
	if got := tm.GatherCost(0); got < 3000 || got > 4000 {
		t.Errorf("min gather = %d, want ~3000", got)
	}
	if got := tm.GatherCost(BlocksPerPage); got < 11000 || got > 12000 {
		t.Errorf("max gather = %d, want ~11500", got)
	}
}

func TestCopyCostRange(t *testing.T) {
	tm := Default()
	if got := tm.CopyCost(0); got != 8000 {
		t.Errorf("min copy = %d, want 8000", got)
	}
	if got := tm.CopyCost(BlocksPerPage); got < 21000 || got > 22000 {
		t.Errorf("max copy = %d, want ~21800", got)
	}
}

func TestCostsMonotonicInBlocks(t *testing.T) {
	tm := Default()
	for b := 1; b <= BlocksPerPage; b++ {
		if tm.PageOpCost(b) <= tm.PageOpCost(b-1) {
			t.Fatalf("PageOpCost not increasing at %d blocks", b)
		}
		if tm.CopyCost(b) <= tm.CopyCost(b-1) {
			t.Fatalf("CopyCost not increasing at %d blocks", b)
		}
	}
}

func TestSlowScalesTraps(t *testing.T) {
	fast, slow := Default(), Slow()
	if slow.SoftTrap != 10*fast.SoftTrap {
		t.Errorf("slow trap = %d, want %d", slow.SoftTrap, 10*fast.SoftTrap)
	}
	if slow.TLBShootdown != 10*fast.TLBShootdown {
		t.Errorf("slow TLB = %d, want %d", slow.TLBShootdown, 10*fast.TLBShootdown)
	}
	if slow.CopyBase != fast.CopyBase+6000 {
		t.Errorf("slow copy base = %d, want %d", slow.CopyBase, fast.CopyBase+6000)
	}
	// Block-level timing is unchanged.
	if slow.RemoteMiss != fast.RemoteMiss || slow.LocalMiss != fast.LocalMiss {
		t.Error("slow system must not change block timing")
	}
}

func TestScaleNetwork(t *testing.T) {
	tm := Default().ScaleNetwork(4)
	if tm.NetworkLatency != 320 {
		t.Errorf("scaled latency = %d, want 320", tm.NetworkLatency)
	}
	// The remote round trip contains exactly two wire traversals.
	want := Default().RemoteMiss - 2*80 + 2*320
	if tm.RemoteMiss != want {
		t.Errorf("scaled remote miss = %d, want %d", tm.RemoteMiss, want)
	}
	if tm.LocalMiss != Default().LocalMiss {
		t.Error("network scaling must not change local latency")
	}
}

func TestScaleNetworkIdentity(t *testing.T) {
	if got := Default().ScaleNetwork(1); got != Default() {
		t.Errorf("ScaleNetwork(1) changed the model: %+v", got)
	}
}

func TestThresholdRatios(t *testing.T) {
	d, s, p := DefaultThresholds(), SlowThresholds(), PaperThresholds()
	// The paper raises MigRep by 1.5x and doubles R-NUMA when slow.
	if s.MigRepThreshold*2 != d.MigRepThreshold*3 {
		t.Errorf("slow MigRep threshold %d is not 1.5x of %d", s.MigRepThreshold, d.MigRepThreshold)
	}
	if s.RNUMAThreshold != 2*d.RNUMAThreshold {
		t.Errorf("slow R-NUMA threshold %d is not 2x of %d", s.RNUMAThreshold, d.RNUMAThreshold)
	}
	if p.MigRepThreshold != 800 || p.MigRepResetInterval != 32000 || p.RNUMAThreshold != 32 {
		t.Errorf("paper thresholds changed: %+v", p)
	}
}

func TestClusterValidate(t *testing.T) {
	if err := DefaultCluster().Validate(); err != nil {
		t.Fatalf("default cluster invalid: %v", err)
	}
	bad := []Cluster{
		{Nodes: 0, CPUsPerNode: 4},
		{Nodes: 8, CPUsPerNode: 0},
		{Nodes: -1, CPUsPerNode: 4},
		{Nodes: 65, CPUsPerNode: 1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("cluster %+v validated but should not", c)
		}
	}
	if got := DefaultCluster().TotalCPUs(); got != 32 {
		t.Errorf("total cpus = %d, want 32", got)
	}
}

func TestNetworkValidate(t *testing.T) {
	if got := (Network{}).Kind(); got != TopoCrossbar {
		t.Errorf("zero network kind = %q, want crossbar", got)
	}
	good := []Network{
		{},
		{Topology: TopoRing},
		{Topology: TopoMesh},
		{Topology: TopoFatTree},
	}
	for _, n := range good {
		if err := n.Validate(8); err != nil {
			t.Errorf("network %+v rejected: %v", n, err)
		}
	}
	bad := []Network{
		{Topology: "torus"},
	}
	for _, n := range bad {
		if err := n.Validate(8); err == nil {
			t.Errorf("network %+v validated but should not", n)
		}
	}
	// The fixed arity (4) must be validated too: what Validate
	// blesses, the fabric constructor must accept.
	if err := (Network{Topology: TopoFatTree}).Validate(6); err == nil {
		t.Error("fat-tree with arity 4 over 6 nodes validated")
	}
	cl := DefaultCluster()
	cl.Net.Topology = "torus"
	if err := cl.Validate(); err == nil {
		t.Error("cluster with unknown topology validated")
	}
}

func TestGeometryConstants(t *testing.T) {
	if BlocksPerPage != 64 {
		t.Errorf("blocks per page = %d, want 64", BlocksPerPage)
	}
	if 1<<BlockShift != BlockBytes {
		t.Error("block shift inconsistent with block size")
	}
	if 1<<PageShift != PageBytes {
		t.Error("page shift inconsistent with page size")
	}
	if BlockCacheBytes != 4*L1Bytes {
		t.Error("block cache must equal the sum of the four L1s")
	}
	if PageCacheBytes != 40*BlockCacheBytes {
		t.Error("page cache must be 40x the block cache")
	}
}
