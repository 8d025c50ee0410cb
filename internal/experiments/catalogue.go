package experiments

import (
	"bytes"
	"io"

	"parblast/internal/report"
)

// Env is what one suite invocation hands every catalogue entry.
type Env struct {
	Lab *Lab
	// Out receives every entry's table.
	Out io.Writer
	// MergeRanks are the mergescale sweep's rank counts (nil = its default).
	MergeRanks []int
	// HintsOut, when set, is where iotune writes its learned-hints artifact.
	HintsOut string
}

// Spec is one entry of the experiment catalogue.
type Spec struct {
	Name  string
	Title string
	// Run executes the experiment, prints its table under "== Title ==" to
	// env.Out and returns its suite-artifact rows. Nil rows mark a
	// table-only entry (prep) that adds nothing to the artifact.
	Run func(env Env) ([]report.SuiteRow, error)
	// table prints the table with no rows; the catalogue test reads its
	// heading.
	table func(w io.Writer)
}

// entry builds a catalogue entry from an experiment's runner, its table
// printer and its suite-row conversion (nil for a table-only entry).
func entry[R any](name, title string, run func(Env) ([]R, error),
	printRows func(io.Writer, string, []R), convert func([]R) []report.SuiteRow) Spec {
	return Spec{
		Name:  name,
		Title: title,
		Run: func(env Env) ([]report.SuiteRow, error) {
			// Rows returned with an error still print, so a tripped gate
			// (iotune's) shows the offending cells. Whatever the run itself
			// reports (iotune's hints line) follows the table.
			var notes bytes.Buffer
			own := env
			own.Out = &notes
			rows, err := run(own)
			if err == nil || rows != nil {
				printRows(env.Out, title, rows)
			}
			if _, werr := notes.WriteTo(env.Out); err == nil {
				err = werr
			}
			if err != nil || convert == nil {
				return nil, err
			}
			return convert(rows), nil
		},
		table: func(w io.Writer) { printRows(w, title, nil) },
	}
}

// onLab adapts an experiment that needs only the lab.
func onLab[R any](run func(*Lab) ([]R, error)) func(Env) ([]R, error) {
	return func(env Env) ([]R, error) { return run(env.Lab) }
}

// Specs returns the experiment catalogue in presentation order: the
// paper's §4 figures and tables, the design-choice ablations, then the
// extension studies.
func Specs() []Spec {
	phase := func(name, title string, run func(*Lab) ([]Row, error)) Spec {
		return entry(name, title, onLab(run), PrintRows, suiteRows)
	}
	return []Spec{
		phase("fig1a", "Figure 1(a): mpiBLAST time distribution", Fig1a),
		phase("fig1b", "Figure 1(b): fragment-count sensitivity (32 procs)", Fig1b),
		phase("table1", "Table 1: phase breakdown at 32 processes", Table1),
		phase("table2", "Table 2: query size vs output size", Table2),
		phase("fig3a", "Figure 3(a): node scalability (Altix/XFS)", Fig3a),
		phase("fig3b", "Figure 3(b): output scalability at 62 processes", Fig3b),
		phase("fig4", "Figure 4: node scalability (blade/NFS)", Fig4),
		phase("ablations", "Ablations: output mode, pruning, batching, granularity", Ablations),
		phase("readpath", "Read path: collective input reads + input/search overlap", ReadPath),
		phase("hetero", "Heterogeneous cluster: static vs dynamic partitioning", Hetero),
		entry("prep", "Operational overhead (§3.1): pre-partitioning vs global files",
			onLab(PrepCost), printPrepRows, nil),
		entry("faults", "Fault tolerance: worker crash at mid-search + transient I/O errors",
			onLab(Faults), printFaultRows, faultSuiteRows),
		entry("mergescale", "Merge scalability: flat master-ingest vs hierarchical tree merge",
			func(env Env) ([]MergeScaleRow, error) { return MergeScale(env.Lab, env.MergeRanks) },
			PrintMergeScaleRows, mergeScaleSuiteRows),
		entry("iotune", "I/O auto-tuning: learned hints vs fixed heuristics",
			runIOTune, printIOTuneRows, ioTuneSuiteRows),
		entry("latency", "Per-query latency and exact critical path (ranks × protocols)",
			onLab(Latency), printLatencyRows, latencySuiteRows),
		entry("sla", "Online serving: latency vs arrival rate, admission shedding (open-loop streams)",
			onLab(SLA), printSLARows, slaSuiteRows),
	}
}

// Lookup returns the catalogue entry called name.
func Lookup(name string) (Spec, bool) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
