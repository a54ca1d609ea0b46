// Package experiments reproduces every table and figure of the paper's
// evaluation: the benchmark table (Table II), the baseline configuration
// (Table III), the motivation hit rates (Figure 2), the reuse
// characterization (Figures 3-6), the main evaluation (Figures 10 and 11),
// the TLB-compression comparison (Figure 12), the huge-page study, and the
// ablations the paper defers to future work. Each experiment returns
// structured rows plus a text rendering shared by the CLI tools, the
// benchmark harness and EXPERIMENTS.md.
//
// Every simulating figure is written as a list of CellSpecs run through
// Options.Executor — in-process when nil, on a gputlbd daemon through
// jobs.Client — and reduced from the returned CellResults, so a figure
// renders the same bytes wherever its cells run.
package experiments
