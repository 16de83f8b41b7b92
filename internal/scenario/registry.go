package scenario

import (
	"fmt"
	"sort"
	"sync"
)

// DefaultName is the scenario an empty selection resolves to: the
// paper's benchmark.
const DefaultName = "sdr-radio"

var reg = struct {
	sync.RWMutex
	scenarios map[string]Scenario
	// bySpec maps a scenario's canonical spec hash to its name, so an
	// inline spec identical to a builtin resolves to the same content
	// address the named request would.
	bySpec map[string]string
}{scenarios: map[string]Scenario{}, bySpec: map[string]string{}}

// Register adds a scenario to the registry. It panics on an empty or
// duplicate name — registration happens at init time, so both are
// programming errors.
func Register(s Scenario) {
	if s.Name == "" {
		panic("scenario: Register with empty name")
	}
	if s.Spec == nil {
		panic(fmt.Sprintf("scenario: Register %q with nil spec", s.Name))
	}
	reg.Lock()
	defer reg.Unlock()
	if _, dup := reg.scenarios[s.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", s.Name))
	}
	reg.scenarios[s.Name] = s
	if h := s.Spec.Hash(); reg.bySpec[h] == "" {
		reg.bySpec[h] = s.Name
	}
}

// BuiltinNameForSpec reports the registered scenario whose canonical
// spec equals sp, if any. Callers use it to collapse an inline spec
// onto the equivalent named request so both share one content address.
func BuiltinNameForSpec(sp Spec) (string, bool) {
	n, err := sp.Normalize()
	if err != nil {
		return "", false
	}
	reg.RLock()
	defer reg.RUnlock()
	name, ok := reg.bySpec[n.Hash()]
	return name, ok
}

// Lookup returns the named scenario. Unknown names report the
// registered alternatives.
func Lookup(name string) (Scenario, error) {
	reg.RLock()
	defer reg.RUnlock()
	s, ok := reg.scenarios[name]
	if !ok {
		return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (registered: %v)", name, namesLocked())
	}
	return s, nil
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	reg.RLock()
	defer reg.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(reg.scenarios))
	for n := range reg.scenarios {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Info is the JSON-able catalogue entry for one scenario, served by
// the simulation service's /scenarios endpoint and stable on the wire.
// WarmupS/MeasureS of 0 mean "the paper defaults" (chosen by the
// experiment layer).
type Info struct {
	Name          string  `json:"name"`
	Description   string  `json:"description"`
	Topology      string  `json:"topology"`
	Cores         int     `json:"cores"`
	Tasks         int     `json:"tasks"`
	WarmupS       float64 `json:"warmup_s"`
	MeasureS      float64 `json:"measure_s"`
	DefaultPolicy string  `json:"default_policy"`
	DefaultDelta  float64 `json:"default_delta"`
	// SpecVersion is the declarative spec schema version the scenario
	// exports, so clients can feature-detect the spec path before
	// requesting ?spec=1.
	SpecVersion int `json:"spec_version,omitempty"`
}

// Info returns the catalogue entry for the scenario.
func (s Scenario) Info() Info {
	return Info{
		Name:          s.Name,
		Description:   s.Description,
		Topology:      s.Topology,
		Cores:         s.Cores,
		Tasks:         s.Tasks,
		WarmupS:       s.WarmupS,
		MeasureS:      s.MeasureS,
		DefaultPolicy: s.DefaultPolicy,
		DefaultDelta:  s.DefaultDelta,
		SpecVersion:   s.Spec.SpecVersion,
	}
}

// Infos returns the catalogue entries of every registered scenario,
// sorted by name.
func Infos() []Info {
	all := All()
	out := make([]Info, len(all))
	for i, s := range all {
		out[i] = s.Info()
	}
	return out
}

// All returns every registered scenario sorted by name.
func All() []Scenario {
	reg.RLock()
	defer reg.RUnlock()
	out := make([]Scenario, 0, len(reg.scenarios))
	for _, s := range reg.scenarios {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
