package main

import (
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files and BENCHMARK.json")

// fullPlan builds a workload's plan at the sizes the benchmark runs.
func fullPlan(t *testing.T, workload string, seed int64) *plan {
	t.Helper()
	sz := sizesFor(false)
	switch workload {
	case "lib_kdv":
		return planLibKDV(seed, sz.libRounds)
	case "serve_tiles":
		return planServeTiles(seed, sz.cityN, sz.tileWarm, sz.tileOps)
	case "serve_mixed":
		return planServeMixed(seed, sz.mixedRounds)
	case "shard_kdv":
		return planShardKDV(seed, sz.shardRounds)
	}
	t.Fatalf("unknown workload %q", workload)
	return nil
}

func TestPlanDigests(t *testing.T) {
	const golden = "testdata/plan_digests.json"
	got := make(map[string]string)
	for _, w := range spec.Workloads {
		p := fullPlan(t, w.Name, 42)
		got[w.Name] = p.digest()
		if again := fullPlan(t, w.Name, 42).digest(); again != got[w.Name] {
			t.Errorf("%s: seed 42 gave digests %s and %s", w.Name, got[w.Name], again)
		}
		if other := fullPlan(t, w.Name, 43).digest(); other == got[w.Name] {
			t.Errorf("%s: seeds 42 and 43 give the same plan", w.Name)
		}
		if len(p.Ops) < 200 {
			t.Errorf("%s: plan has %d ops, want at least 200", w.Name, len(p.Ops))
		}
		if len(p.Ops)%p.Round != 0 {
			t.Errorf("%s: %d ops is not a whole number of rounds of %d", w.Name, len(p.Ops), p.Round)
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err = os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	if err = json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for w, d := range got {
		if want[w] != d {
			t.Errorf("%s: plan digest %s, golden %s (run with -update if the plan was meant to change)", w, d, want[w])
		}
	}
}

// classCounts returns how many ops of each class ops holds.
func classCounts(ops []op) map[string]int {
	m := make(map[string]int)
	for i := range ops {
		m[ops[i].Class]++
	}
	return m
}

// TestClassProportions pins the class mix of every round: it is what the
// README's workload definitions promise.
func TestClassProportions(t *testing.T) {
	type mix map[string]int
	want := map[string]mix{
		"lib_kdv": {"sweep": 4, "cutoff": 4, "naive_finite": 4, "naive_gauss": 2, "bound_approx": 2, "sampled": 2},
		"serve_mixed": {"kdv": 6, "kfunction": 3, "moran": 2, "generalg": 1, "idw_knn": 2, "idw_naive": 1,
			"repeat": 2, "reupload_csv": 1, "reupload_geojson": 1, "cold_upload": 1},
		"shard_kdv": {"cold": 1, "warm": 2, "hot": 7},
	}
	for w, m := range want {
		p := fullPlan(t, w, 7)
		for r := 0; r+p.Round <= len(p.Ops); r += p.Round {
			got := classCounts(p.Ops[r : r+p.Round])
			for class, n := range m {
				if got[class] != n {
					t.Fatalf("%s round %d: %d %s ops, want %d", w, r/p.Round, got[class], class, n)
				}
			}
			if len(got) != len(m) {
				t.Fatalf("%s round %d: classes %v, want %v", w, r/p.Round, got, m)
			}
		}
	}
	// serve_tiles draws its formats independently: 70 % png within 2 points.
	p := fullPlan(t, "serve_tiles", 7)
	if share := float64(classCounts(p.Ops)["tile_png"]) / float64(len(p.Ops)); share < 0.68 || share > 0.72 {
		t.Errorf("serve_tiles: png share %.3f, want 0.70", share)
	}
}

// TestShardPlanOrder checks what shard_kdv's classes rely on: a warm op's
// placement was uploaded by an earlier cold op, and a hot op repeats a key
// that ran before it.
func TestShardPlanOrder(t *testing.T) {
	p := fullPlan(t, "shard_kdv", 3)
	placed, ran := make(map[string]bool), make(map[string]bool)
	for _, list := range [][]op{p.Warm, p.Ops} {
		for _, o := range list {
			switch o.Class {
			case "cold":
				if placed[o.Name] {
					t.Fatalf("op %d: cold op on placement %s, which exists", o.ID, o.Name)
				}
			case "warm":
				if !placed[o.Name] || ran[o.Key] {
					t.Fatalf("op %d: warm op needs an uploaded placement and a new key (placed %v, ran %v)", o.ID, placed[o.Name], ran[o.Key])
				}
			case "hot":
				if !ran[o.Key] {
					t.Fatalf("op %d: hot op repeats key %s, which has not run", o.ID, o.Key)
				}
			}
			placed[o.Name], ran[o.Key] = true, true
		}
	}
}
