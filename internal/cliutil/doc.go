// Package cliutil is the output plumbing shared by the command-line tools
// (evaluate, gputlbsim, traceconv): one OutputFlags
// struct registers the -stats-out, -trace-out, -cpuprofile and -memprofile
// flags with identical names and semantics everywhere, constructs the
// matching collectors (nil when a flag is unset, so unexporting runs pay no
// collection cost), and exports whatever was requested.
//
// The package exists so a flag added here appears — spelled and behaving
// the same — in every tool at once; the cliutil tests assert that
// cross-tool identity. Tools that never simulate (traceconv) register only
// the pprof pair via RegisterProfiles.
package cliutil
