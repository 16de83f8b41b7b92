package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"strconv"
	"testing"
)

// The golden spec digests pin every builtin's declarative form and
// every Generate(seed) spec for a range of seeds: the canonical
// content address (Spec.Hash), the SHA-256 of the full spec JSON
// (labels and request defaults included) and the SHA-256 of the
// catalogue entry. A builtin whose loads, wiring, labels or defaults
// move by one bit shows up here, and so does a generator whose draws
// change — which would orphan every stored run keyed on the old
// addresses. Regenerate deliberately with
//
//	go test ./internal/scenario -run TestSpecDigests -update-spec-digests
//
// and say in the change description why the addresses moved.

var updateSpecDigests = flag.Bool("update-spec-digests", false, "rewrite testdata/builtin_spec_digests.json")

const specDigestsPath = "testdata/builtin_spec_digests.json"

// Generate is pinned over this seed range, negative seeds included.
const genSeedLo, genSeedHi = -5, 199

type specDigest struct {
	Hash       string `json:"hash"`
	SpecSHA256 string `json:"spec_sha256"`
	InfoSHA256 string `json:"info_sha256"`
}

type specDigestFile struct {
	Builtins map[string]specDigest `json:"builtins"`
	Generate map[string]specDigest `json:"generate"`
}

func sha256JSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func digestOf(t *testing.T, s Scenario) specDigest {
	t.Helper()
	return specDigest{
		Hash:       s.Spec.Hash(),
		SpecSHA256: sha256JSON(t, *s.Spec),
		InfoSHA256: sha256JSON(t, s.Info()),
	}
}

func TestSpecDigests(t *testing.T) {
	got := specDigestFile{Builtins: map[string]specDigest{}, Generate: map[string]specDigest{}}
	for _, s := range All() {
		got.Builtins[s.Name] = digestOf(t, s)
	}
	for seed := int64(genSeedLo); seed <= genSeedHi; seed++ {
		sc, err := FromSpec(Generate(seed))
		if err != nil {
			t.Fatalf("Generate(%d): %v", seed, err)
		}
		got.Generate[strconv.FormatInt(seed, 10)] = digestOf(t, sc)
	}

	if *updateSpecDigests {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(specDigestsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d builtin and %d generated digests", len(got.Builtins), len(got.Generate))
		return
	}

	want := loadSpecDigests(t)
	for k, g := range got.Generate {
		if w, ok := want.Generate[k]; !ok {
			t.Errorf("Generate(%s): no pinned digest", k)
		} else if g != w {
			t.Errorf("Generate(%s): digest %+v, pinned %+v", k, g, w)
		}
	}
	if len(want.Generate) != len(got.Generate) {
		t.Errorf("pinned %d generated digests, have %d", len(want.Generate), len(got.Generate))
	}
	// Each builtin's digest is checked by TestBuiltinSpecsCompileBitForBit;
	// here the catalogue must be exactly the pinned set.
	for name := range got.Builtins {
		if _, ok := want.Builtins[name]; !ok {
			t.Errorf("builtin %s: no pinned digest", name)
		}
	}
	if len(want.Builtins) != len(got.Builtins) {
		t.Errorf("pinned %d builtins, have %d", len(want.Builtins), len(got.Builtins))
	}
}

func loadSpecDigests(t *testing.T) specDigestFile {
	t.Helper()
	raw, err := os.ReadFile(specDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	var f specDigestFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("%s: %v", specDigestsPath, err)
	}
	return f
}
