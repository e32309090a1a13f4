package gpgpumem_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	gpgpumem "repro"
)

// goldenLedger maps each ResultCacheCodeVersion to the SHA-256 of every
// golden the simulator at that version produces.
const goldenLedger = "testdata/golden-ledger.json"

// goldenGlobs are the goldens the ledger pins.
var goldenGlobs = []string{"internal/exp/testdata/*.golden", "internal/fabric/testdata/*.golden"}

// TestGoldenLedger ties the goldens to the result-cache code version:
// every golden must hash to the current version's ledger entry, so a
// change that moves a golden byte without bumping ResultCacheCodeVersion
// fails here, naming the file — a stale disk or peer cache entry would
// otherwise be served as the new code's result. With UPDATE_LEDGER=1
// (scripts/regen-golden.sh) the test adds the entry of a version the
// ledger does not hold yet; it never rewrites an existing entry.
func TestGoldenLedger(t *testing.T) {
	ledger := map[string]map[string]string{}
	data, err := os.ReadFile(goldenLedger)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &ledger); err != nil {
		t.Fatalf("%s: %v", goldenLedger, err)
	}
	hashes := map[string]string{}
	for _, glob := range goldenGlobs {
		files, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			hashes[filepath.ToSlash(f)] = hex.EncodeToString(sum[:])
		}
	}
	if len(hashes) == 0 {
		t.Fatal("no goldens found; run the test from the repository root")
	}

	version := gpgpumem.ResultCacheCodeVersion
	pinned, ok := ledger[version]
	if !ok {
		if os.Getenv("UPDATE_LEDGER") == "" {
			t.Fatalf("%s has no entry for %s; scripts/regen-golden.sh adds it", goldenLedger, version)
		}
		ledger[version] = hashes
		out, err := json.MarshalIndent(ledger, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenLedger, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	names := make([]string, 0, len(hashes))
	for f := range hashes {
		names = append(names, f)
	}
	for f := range pinned {
		if _, ok := hashes[f]; !ok {
			names = append(names, f)
		}
	}
	sort.Strings(names)
	for _, f := range names {
		switch got, want := hashes[f], pinned[f]; {
		case want == "":
			t.Errorf("%s is not in %s's %s entry", f, goldenLedger, version)
		case got == "":
			t.Errorf("%s is pinned in %s's %s entry but missing", f, goldenLedger, version)
		case got != want:
			t.Errorf("%s moved (sha256 %s, %s pins %s): a golden that moves needs a ResultCacheCodeVersion bump", f, got, version, want)
		}
	}
}
