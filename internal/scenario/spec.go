package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"thermbal/internal/stream"
)

// This file defines the declarative scenario description: a versioned,
// JSON-able Spec that fully determines a workload — task graph with
// rates, deadlines and loads; platform and floorplan selection
// (including asymmetric big.LITTLE-style core tiles and the ambient
// profile); load modulation; power coefficients. Built-in scenarios are
// spec literals and generators, a service request may carry a spec
// inline, and Generate derives one from a seed — all three enter the
// simulator through Compile and the same content-address scheme.

// SpecVersionV1 is the current (and only) scenario spec schema version.
const SpecVersionV1 = 1

// Spec is the declarative form of a scenario. The zero value of every
// optional field selects a documented default, so a minimal spec is
// just a graph; Normalize makes the execution-relevant defaults
// explicit and validates everything.
type Spec struct {
	// SpecVersion is the schema version (0 is read as the current
	// version, 1).
	SpecVersion int `json:"spec_version,omitempty"`
	// Name labels the scenario ("sdr-radio" for the builtin, free-form
	// for custom specs). It is not part of the content identity.
	Name string `json:"name,omitempty"`
	// Description is a one-line summary for catalogues.
	Description string `json:"description,omitempty"`

	// Graph is the streaming task graph.
	Graph GraphSpec `json:"graph"`
	// Platform selects the die and its electrical/thermal parameters.
	Platform PlatformSpec `json:"platform"`
	// Modulation, when present, varies task loads over time.
	Modulation *ModulationSpec `json:"modulation,omitempty"`

	// WarmupS and MeasureS are the scenario's default phases; zero
	// means the paper defaults (12.5 s / 30 s). Like Name they are
	// request defaults, not part of the content identity — a run's
	// resolved phases are keyed explicitly.
	WarmupS  float64 `json:"warmup_s,omitempty"`
	MeasureS float64 `json:"measure_s,omitempty"`
	// DefaultPolicy and DefaultDelta are the policy/threshold a bare
	// run of this scenario uses (defaults "thermal-balance" / 3 °C).
	DefaultPolicy string  `json:"default_policy,omitempty"`
	DefaultDelta  float64 `json:"default_delta,omitempty"`
}

// GraphSpec is the task graph: named bounded queues, tasks wired to
// them by name, one paced source and one deadline sink. Queue and task
// order is semantic — it fixes the engine's scheduling indices — so
// both lists are ordered, not sets.
type GraphSpec struct {
	// FramePeriodS is the frame period tasks' work is derived from
	// (default 0.02 s, the SDR rate).
	FramePeriodS float64 `json:"frame_period_s,omitempty"`
	// FMaxHz converts FSE loads to cycles per frame (default 533 MHz).
	FMaxHz float64 `json:"fmax_hz,omitempty"`
	// QueueCap is the default capacity of queues that set none
	// (default 11 frames, the paper's minimum sustainable size). A
	// run's queue-capacity override replaces this default but never an
	// explicit per-queue cap.
	QueueCap int `json:"queue_cap,omitempty"`
	// Placement is "explicit" (every task names its core; default) or
	// "balanced" (cores assigned by the deterministic energy-balancing
	// placement).
	Placement string `json:"placement,omitempty"`

	Queues []QueueSpec `json:"queues"`
	Tasks  []TaskSpec  `json:"tasks"`
	Source SourceSpec  `json:"source"`
	Sink   SinkSpec    `json:"sink"`
}

// QueueSpec declares one bounded queue.
type QueueSpec struct {
	Name string `json:"name"`
	// Cap overrides the graph-level default capacity when positive.
	Cap int `json:"cap,omitempty"`
}

// TaskSpec declares one task.
type TaskSpec struct {
	Name string `json:"name"`
	// FSE is the full-speed-equivalent load in (0, 1].
	FSE float64 `json:"fse"`
	// Inputs and Outputs name the queues the task consumes from and
	// produces into. A task fires when every input holds a frame and
	// every output has room.
	Inputs  []string `json:"inputs,omitempty"`
	Outputs []string `json:"outputs,omitempty"`
	// Core is the 0-based placement; required under explicit
	// placement, forbidden under balanced.
	Core *int `json:"core,omitempty"`
	// StateBytes / CodeBytes override the migration payload and
	// program image sizes when positive (defaults 64 KiB / 48 KiB).
	StateBytes float64 `json:"state_bytes,omitempty"`
	CodeBytes  float64 `json:"code_bytes,omitempty"`
}

// SourceSpec paces frames into one queue at a fixed real-time rate.
type SourceSpec struct {
	Queue string `json:"queue"`
	// PeriodS defaults to the graph frame period.
	PeriodS float64 `json:"period_s,omitempty"`
}

// SinkSpec drains one queue on a deadline schedule.
type SinkSpec struct {
	Queue string `json:"queue"`
	// PeriodS defaults to the graph frame period.
	PeriodS float64 `json:"period_s,omitempty"`
	// Prefill is the playback threshold in frames; 0 derives half the
	// sink queue's effective capacity, so it follows queue-capacity
	// overrides. An explicit prefill must fit the sink queue.
	Prefill int `json:"prefill,omitempty"`
}

// PlatformSpec selects the die and its parameters.
type PlatformSpec struct {
	// Cores is the core count (default 3, the paper's die; with Tiles
	// it must equal the summed tile counts, or be 0 to derive it).
	Cores int `json:"cores,omitempty"`
	// Tiles, when present, build an asymmetric (big.LITTLE-style) die:
	// runs of identically scaled core tiles in a row under a shared
	// memory strip. Empty tiles reuse the homogeneous tiled die.
	Tiles []TileSpec `json:"tiles,omitempty"`
	// AmbientC overrides the package ambient temperature (°C).
	AmbientC *float64 `json:"ambient_c,omitempty"`
	// LadderMHz overrides the DVFS frequency ladder (default
	// 133/266/533 MHz). Levels are kept sorted ascending.
	LadderMHz []float64 `json:"ladder_mhz,omitempty"`
	// Power overrides the core power model coefficients.
	Power *PowerSpec `json:"power,omitempty"`
}

// TileSpec is one run of identically scaled core tiles.
type TileSpec struct {
	// Count is the number of tiles in this run.
	Count int `json:"count"`
	// Scale multiplies the tile geometry (1 = the paper's 2.0x1.4 mm
	// tile; >1 is a "big" core with more silicon and thermal mass,
	// <1 a "LITTLE" one). Default 1.
	Scale float64 `json:"scale,omitempty"`
}

// PowerSpec overrides core power-model coefficients; zero fields keep
// the model defaults.
type PowerSpec struct {
	// Config is "conf1" (RISC32-streaming, default) or "conf2"
	// (RISC32-ARM11).
	Config string `json:"config,omitempty"`
	// IdleFraction is idle power as a fraction of max dynamic power.
	IdleFraction float64 `json:"idle_fraction,omitempty"`
	// LeakRefW, LeakBeta, LeakRefTempC parameterize the exponential
	// leakage model.
	LeakRefW     float64 `json:"leak_ref_w,omitempty"`
	LeakBeta     float64 `json:"leak_beta,omitempty"`
	LeakRefTempC float64 `json:"leak_ref_temp_c,omitempty"`
	// VMaxV / VMinV bound the DVFS voltage ladder.
	VMaxV float64 `json:"vmax_v,omitempty"`
	VMinV float64 `json:"vmin_v,omitempty"`
}

// ModulationSpec varies task loads over time.
type ModulationSpec struct {
	// Kind is the modulation scheme; "phase-shift" is the only one:
	// even- and odd-indexed tasks alternate between Hi and Lo load
	// factors every PeriodS.
	Kind string `json:"kind"`
	// PeriodS is the phase length (default 4 s).
	PeriodS float64 `json:"period_s,omitempty"`
	// Hi and Lo scale the construction-time loads of the hot and cold
	// groups (defaults 1.35 / 0.65).
	Hi float64 `json:"hi,omitempty"`
	Lo float64 `json:"lo,omitempty"`
}

// Placement values.
const (
	PlacementExplicit = "explicit"
	PlacementBalanced = "balanced"
)

// ModPhaseShift is the phase-shift modulation kind.
const ModPhaseShift = "phase-shift"

// Structural and physical bounds enforced by validation. They are
// generous for experiments but reject the nonphysical and the
// absurd-resource cases a content-addressed service must not execute.
const (
	maxSpecTasks  = 4096
	maxSpecQueues = 16384
	maxSpecCores  = 1024
	maxQueueCap   = 1 << 16
	maxNameLen    = 128
	maxTaskBytes  = 1 << 30 // 1 GiB state/code payload
)

// Problem locates one invalid spec field.
type Problem struct {
	// Path is the JSON-ish location ("graph.tasks[3].fse").
	Path string `json:"path"`
	// Msg says what is wrong with it.
	Msg string `json:"msg"`
}

// SpecError is the structured validation failure: every problem found,
// in a deterministic order.
type SpecError struct {
	Problems []Problem
}

// Error lists every problem.
func (e *SpecError) Error() string {
	parts := make([]string, len(e.Problems))
	for i, p := range e.Problems {
		parts[i] = p.Path + ": " + p.Msg
	}
	return "scenario spec invalid: " + strings.Join(parts, "; ")
}

// specCheck accumulates validation problems.
type specCheck struct {
	problems []Problem
}

func (c *specCheck) addf(path, format string, args ...any) {
	c.problems = append(c.problems, Problem{Path: path, Msg: fmt.Sprintf(format, args...)})
}

// finite rejects NaN and infinities — nonphysical everywhere a float
// appears in a spec.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func (c *specCheck) num(path string, v, lo, hi float64) bool {
	if !finite(v) {
		c.addf(path, "must be a finite number")
		return false
	}
	if v < lo || v > hi {
		c.addf(path, "%g outside [%g, %g]", v, lo, hi)
		return false
	}
	return true
}

// Normalize validates sp and returns its normalized form: every
// execution-relevant default made explicit, ladder levels sorted,
// version pinned. Request-level defaults (name, phases, default
// policy/delta) pass through untouched — they are resolved per run,
// not part of the spec's content identity. Normalize is idempotent:
// normalizing a normalized spec returns it unchanged.
func (sp Spec) Normalize() (Spec, error) {
	c := &specCheck{}
	n := sp

	if n.SpecVersion == 0 {
		n.SpecVersion = SpecVersionV1
	}
	if n.SpecVersion != SpecVersionV1 {
		c.addf("spec_version", "unsupported version %d (this build speaks %d)", n.SpecVersion, SpecVersionV1)
		return Spec{}, &SpecError{Problems: c.problems}
	}
	if len(n.Name) > maxNameLen {
		c.addf("name", "longer than %d bytes", maxNameLen)
	}
	if n.WarmupS < 0 || !finite(n.WarmupS) {
		c.addf("warmup_s", "must be a finite non-negative duration")
	}
	if n.MeasureS < 0 || !finite(n.MeasureS) {
		c.addf("measure_s", "must be a finite non-negative duration")
	}
	if n.DefaultDelta < 0 || !finite(n.DefaultDelta) {
		c.addf("default_delta", "must be a finite non-negative threshold")
	}

	n.Graph = normalizeGraph(c, n.Graph)
	n.Platform = normalizePlatform(c, n.Platform)
	if n.Modulation != nil {
		m := normalizeModulation(c, *n.Modulation)
		n.Modulation = &m
	}

	if len(c.problems) > 0 {
		return Spec{}, &SpecError{Problems: c.problems}
	}
	return n, nil
}

func normalizeGraph(c *specCheck, g GraphSpec) GraphSpec {
	if g.FramePeriodS == 0 {
		g.FramePeriodS = stream.DefaultFramePeriod
	}
	c.num("graph.frame_period_s", g.FramePeriodS, 1e-6, 10)
	if g.FMaxHz == 0 {
		g.FMaxHz = 533e6
	}
	c.num("graph.fmax_hz", g.FMaxHz, 1e6, 1e11)
	if g.QueueCap == 0 {
		g.QueueCap = stream.DefaultQueueCap
	}
	if g.QueueCap < 1 || g.QueueCap > maxQueueCap {
		c.addf("graph.queue_cap", "%d outside [1, %d]", g.QueueCap, maxQueueCap)
	}
	if g.Placement == "" {
		g.Placement = PlacementExplicit
	}
	if g.Placement != PlacementExplicit && g.Placement != PlacementBalanced {
		c.addf("graph.placement", "unknown placement %q (%s | %s)", g.Placement, PlacementExplicit, PlacementBalanced)
	}

	if len(g.Queues) == 0 {
		c.addf("graph.queues", "at least one queue is required")
	}
	if len(g.Queues) > maxSpecQueues {
		c.addf("graph.queues", "%d queues exceed the limit of %d", len(g.Queues), maxSpecQueues)
		return g
	}
	if len(g.Tasks) == 0 {
		c.addf("graph.tasks", "at least one task is required")
	}
	if len(g.Tasks) > maxSpecTasks {
		c.addf("graph.tasks", "%d tasks exceed the limit of %d", len(g.Tasks), maxSpecTasks)
		return g
	}

	qIndex := make(map[string]int, len(g.Queues))
	for i, q := range g.Queues {
		path := fmt.Sprintf("graph.queues[%d]", i)
		if q.Name == "" || len(q.Name) > maxNameLen {
			c.addf(path+".name", "must be 1..%d bytes", maxNameLen)
			continue
		}
		if _, dup := qIndex[q.Name]; dup {
			c.addf(path+".name", "duplicate queue %q", q.Name)
			continue
		}
		qIndex[q.Name] = i
		if q.Cap < 0 || q.Cap > maxQueueCap {
			c.addf(path+".cap", "%d outside [0, %d]", q.Cap, maxQueueCap)
		}
	}

	// Producer/consumer coverage per queue, then task wiring. The
	// source produces into its queue, the sink consumes from its.
	prod := make(map[string]int, len(g.Queues))
	cons := make(map[string]int, len(g.Queues))
	tIndex := make(map[string]int, len(g.Tasks))
	// edges feed the cycle check: producer task -> consumer task.
	producersOf := make(map[string][]int) // queue name -> producing task indices
	for i, t := range g.Tasks {
		path := fmt.Sprintf("graph.tasks[%d]", i)
		if t.Name == "" || len(t.Name) > maxNameLen {
			c.addf(path+".name", "must be 1..%d bytes", maxNameLen)
		} else if _, dup := tIndex[t.Name]; dup {
			c.addf(path+".name", "duplicate task %q", t.Name)
		} else {
			tIndex[t.Name] = i
		}
		if !finite(t.FSE) || t.FSE <= 0 || t.FSE > 1 {
			c.addf(path+".fse", "load %g outside (0, 1]", t.FSE)
		}
		if len(t.Inputs) == 0 && len(t.Outputs) == 0 {
			c.addf(path, "task %q is disconnected (no inputs or outputs)", t.Name)
		}
		for j, q := range t.Inputs {
			if _, ok := qIndex[q]; !ok {
				c.addf(fmt.Sprintf("%s.inputs[%d]", path, j), "dangling edge: unknown queue %q", q)
				continue
			}
			cons[q]++
		}
		for j, q := range t.Outputs {
			if _, ok := qIndex[q]; !ok {
				c.addf(fmt.Sprintf("%s.outputs[%d]", path, j), "dangling edge: unknown queue %q", q)
				continue
			}
			prod[q]++
			producersOf[q] = append(producersOf[q], i)
		}
		switch g.Placement {
		case PlacementBalanced:
			if t.Core != nil {
				c.addf(path+".core", "balanced placement assigns cores; remove the explicit core")
			}
		case PlacementExplicit:
			if t.Core == nil {
				c.addf(path+".core", "explicit placement requires a core for task %q", t.Name)
			} else if *t.Core < 0 {
				c.addf(path+".core", "core %d is negative", *t.Core)
			}
		}
		if !finite(t.StateBytes) || t.StateBytes < 0 || t.StateBytes > maxTaskBytes {
			c.addf(path+".state_bytes", "%g outside [0, %d]", t.StateBytes, maxTaskBytes)
		}
		if !finite(t.CodeBytes) || t.CodeBytes < 0 || t.CodeBytes > maxTaskBytes {
			c.addf(path+".code_bytes", "%g outside [0, %d]", t.CodeBytes, maxTaskBytes)
		}
	}

	if g.Source.Queue == "" {
		c.addf("graph.source.queue", "a source queue is required")
	} else if _, ok := qIndex[g.Source.Queue]; !ok {
		c.addf("graph.source.queue", "unknown queue %q", g.Source.Queue)
	} else {
		prod[g.Source.Queue]++
	}
	if g.Source.PeriodS == 0 {
		g.Source.PeriodS = g.FramePeriodS
	}
	c.num("graph.source.period_s", g.Source.PeriodS, 1e-6, 10)

	if g.Sink.Queue == "" {
		c.addf("graph.sink.queue", "a sink queue is required")
	} else if _, ok := qIndex[g.Sink.Queue]; !ok {
		c.addf("graph.sink.queue", "unknown queue %q", g.Sink.Queue)
	} else {
		cons[g.Sink.Queue]++
	}
	if g.Sink.PeriodS == 0 {
		g.Sink.PeriodS = g.FramePeriodS
	}
	c.num("graph.sink.period_s", g.Sink.PeriodS, 1e-6, 10)
	if g.Sink.Prefill < 0 || g.Sink.Prefill > maxQueueCap {
		c.addf("graph.sink.prefill", "%d outside [0, %d]", g.Sink.Prefill, maxQueueCap)
	} else if qi, ok := qIndex[g.Sink.Queue]; ok {
		// A threshold the queue can never hold means playback never
		// starts: a run with no deadlines at all.
		if capN := g.capOf(g.Queues[qi], 0); g.Sink.Prefill > capN {
			c.addf("graph.sink.prefill", "%d exceeds the sink queue's capacity %d", g.Sink.Prefill, capN)
		}
	}

	for i, q := range g.Queues {
		if q.Name == "" {
			continue
		}
		path := fmt.Sprintf("graph.queues[%d]", i)
		if prod[q.Name] == 0 {
			c.addf(path, "queue %q has no producer", q.Name)
		}
		if cons[q.Name] == 0 {
			c.addf(path, "queue %q has no consumer", q.Name)
		}
	}

	checkAcyclic(c, g, producersOf)
	return g
}

// capOf resolves a queue's capacity for a run: an explicit per-queue
// cap always wins; defaultable queues take the run's override when
// positive, else the graph-level default.
func (g GraphSpec) capOf(q QueueSpec, override int) int {
	if q.Cap > 0 {
		return q.Cap
	}
	if override > 0 {
		return override
	}
	return g.QueueCap
}

// CheckQueueCap reports whether a run may give the spec's defaultable
// queues capacity queueCap (<= 0: no override). An explicit sink
// prefill above the sink queue's resulting capacity is rejected, since
// playback could never start; specs that derive their prefill always
// pass.
func (sp Spec) CheckQueueCap(queueCap int) error {
	prefill := sp.Graph.Sink.Prefill
	if prefill == 0 {
		return nil
	}
	n, err := sp.Normalize()
	if err != nil {
		return err
	}
	for _, q := range n.Graph.Queues {
		if q.Name != n.Graph.Sink.Queue {
			continue
		}
		if capN := n.Graph.capOf(q, queueCap); prefill > capN {
			return &SpecError{Problems: []Problem{{
				Path: "graph.sink.prefill",
				Msg:  fmt.Sprintf("%d exceeds the sink queue's capacity %d under queue_cap %d", prefill, capN, queueCap),
			}}}
		}
	}
	return nil
}

// checkAcyclic rejects cyclic task graphs: a task that (transitively)
// consumes its own output deadlocks the bounded-queue engine, so cycles
// are a spec error, not a runtime hang.
func checkAcyclic(c *specCheck, g GraphSpec, producersOf map[string][]int) {
	const (
		unseen = 0
		onPath = 1
		done   = 2
	)
	state := make([]int8, len(g.Tasks))
	// Iterative DFS over "producer precedes consumer" edges, walked
	// backwards from each task to its producers.
	var cycleAt = -1
	var visit func(i int)
	visit = func(i int) {
		if cycleAt >= 0 || state[i] != unseen {
			return
		}
		state[i] = onPath
		for _, q := range g.Tasks[i].Inputs {
			for _, p := range producersOf[q] {
				if state[p] == onPath {
					cycleAt = p
					return
				}
				visit(p)
				if cycleAt >= 0 {
					return
				}
			}
		}
		state[i] = done
	}
	for i := range g.Tasks {
		visit(i)
		if cycleAt >= 0 {
			c.addf(fmt.Sprintf("graph.tasks[%d]", cycleAt),
				"cycle: task %q transitively consumes its own output", g.Tasks[cycleAt].Name)
			return
		}
	}
}

func normalizePlatform(c *specCheck, p PlatformSpec) PlatformSpec {
	if len(p.Tiles) > 0 {
		// Copy before filling scales: the input spec's slice must not
		// be mutated through the shared backing array.
		p.Tiles = append([]TileSpec(nil), p.Tiles...)
		sum := 0
		for i, t := range p.Tiles {
			path := fmt.Sprintf("platform.tiles[%d]", i)
			if t.Count < 1 || t.Count > maxSpecCores {
				c.addf(path+".count", "%d outside [1, %d]", t.Count, maxSpecCores)
				continue
			}
			if t.Scale == 0 {
				p.Tiles[i].Scale = 1
			} else {
				c.num(path+".scale", t.Scale, 0.25, 4)
			}
			sum += t.Count
		}
		if p.Cores == 0 {
			p.Cores = sum
		} else if p.Cores != sum {
			c.addf("platform.cores", "%d does not match the %d summed tile counts", p.Cores, sum)
		}
	}
	if p.Cores == 0 {
		p.Cores = 3
	}
	if p.Cores < 1 || p.Cores > maxSpecCores {
		c.addf("platform.cores", "%d outside [1, %d]", p.Cores, maxSpecCores)
	}
	if p.AmbientC != nil {
		c.num("platform.ambient_c", *p.AmbientC, -55, 125)
	}
	if len(p.LadderMHz) > 0 {
		if len(p.LadderMHz) > 16 {
			c.addf("platform.ladder_mhz", "%d levels exceed the limit of 16", len(p.LadderMHz))
		}
		ls := append([]float64(nil), p.LadderMHz...)
		sort.Float64s(ls)
		p.LadderMHz = ls
		for i, f := range ls {
			path := fmt.Sprintf("platform.ladder_mhz[%d]", i)
			if !c.num(path, f, 1, 1e5) {
				continue
			}
			if i > 0 && f == ls[i-1] {
				c.addf(path, "duplicate frequency %g MHz", f)
			}
		}
	}
	if p.Power != nil {
		pw := *p.Power
		if pw.Config == "" {
			pw.Config = "conf1"
		}
		if pw.Config != "conf1" && pw.Config != "conf2" {
			c.addf("platform.power.config", "unknown core config %q (conf1 | conf2)", pw.Config)
		}
		c.num("platform.power.idle_fraction", pw.IdleFraction, 0, 1)
		c.num("platform.power.leak_ref_w", pw.LeakRefW, 0, 100)
		c.num("platform.power.leak_beta", pw.LeakBeta, 0, 0.5)
		c.num("platform.power.leak_ref_temp_c", pw.LeakRefTempC, 0, 150)
		c.num("platform.power.vmax_v", pw.VMaxV, 0, 5)
		c.num("platform.power.vmin_v", pw.VMinV, 0, 5)
		if pw.VMaxV > 0 && pw.VMinV > 0 && pw.VMinV > pw.VMaxV {
			c.addf("platform.power.vmin_v", "%g exceeds vmax_v %g", pw.VMinV, pw.VMaxV)
		}
		p.Power = &pw
	}
	return p
}

func normalizeModulation(c *specCheck, m ModulationSpec) ModulationSpec {
	if m.Kind != ModPhaseShift {
		c.addf("modulation.kind", "unknown modulation %q (%s)", m.Kind, ModPhaseShift)
	}
	if m.PeriodS == 0 {
		m.PeriodS = burstPeriodS
	}
	c.num("modulation.period_s", m.PeriodS, 1e-3, 3600)
	if m.Hi == 0 {
		m.Hi = burstHi
	}
	if m.Lo == 0 {
		m.Lo = burstLo
	}
	c.num("modulation.hi", m.Hi, 1e-3, 100)
	c.num("modulation.lo", m.Lo, 1e-3, 100)
	if finite(m.Hi) && finite(m.Lo) && m.Lo > m.Hi {
		c.addf("modulation.lo", "%g exceeds hi %g", m.Lo, m.Hi)
	}
	return m
}

// Validate checks sp without returning the normalized form.
func (sp Spec) Validate() error {
	_, err := sp.Normalize()
	return err
}

// canonicalSpec is the frozen canonical-serialization view: only the
// semantic fields, in this exact declaration order. It feeds the
// SHA-256 content address, so its layout must never change — additions
// require a new spec version. Name, description, default policy/delta
// and default phases are excluded: they are labels and request
// defaults, resolved into the run key itself, so two specs that mean
// the same workload coalesce regardless of labelling.
type canonicalSpec struct {
	SpecVersion int             `json:"spec_version"`
	Graph       GraphSpec       `json:"graph"`
	Platform    PlatformSpec    `json:"platform"`
	Modulation  *ModulationSpec `json:"modulation,omitempty"`
}

// CanonicalBytes returns the frozen fixed-order canonical serialization
// of the spec's semantic content: normalized defaults, declaration-order
// fields, shortest round-trip numbers (encoding/json over structs is
// deterministic — no maps are involved).
func (sp Spec) CanonicalBytes() ([]byte, error) {
	n, err := sp.Normalize()
	if err != nil {
		return nil, err
	}
	return json.Marshal(canonicalSpec{
		SpecVersion: n.SpecVersion,
		Graph:       n.Graph,
		Platform:    n.Platform,
		Modulation:  n.Modulation,
	})
}

// Hash returns the SHA-256 hex of the canonical serialization — the
// spec's content identity, shared by every spelling that normalizes to
// the same workload. It panics on an invalid spec; callers validate
// (or Normalize) first.
func (sp Spec) Hash() string {
	b, err := sp.CanonicalBytes()
	if err != nil {
		panic(fmt.Sprintf("scenario: Hash of invalid spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
