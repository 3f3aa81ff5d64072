package server_test

import (
	"context"
	"runtime"
	"testing"
)

// TestMetricsReportTheCollector: /metrics carries the runtime block on
// every request, its GC share of CPU is a share, and its cycle count is
// read afresh, so it grows across a forced collection.
func TestMetricsReportTheCollector(t *testing.T) {
	cli, _ := bootWithCatalog(t)
	before, err := cli.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	after, err := cli.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if before.Runtime == nil || after.Runtime == nil {
		t.Fatalf("runtime block missing: %v, %v", before.Runtime, after.Runtime)
	}
	if s := after.Runtime.GCCPUShare; s < 0 || s > 1 {
		t.Errorf("gc_cpu_share = %v, not in [0, 1]", s)
	}
	if after.Runtime.HeapLiveBytes == 0 || after.Runtime.HeapScanBytes == 0 {
		t.Errorf("heap live %d B, scanned %d B after a cycle", after.Runtime.HeapLiveBytes, after.Runtime.HeapScanBytes)
	}
	if after.Runtime.GCCycles <= before.Runtime.GCCycles {
		t.Errorf("gc_cycles %d → %d across runtime.GC()", before.Runtime.GCCycles, after.Runtime.GCCycles)
	}
}
