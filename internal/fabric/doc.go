// Package fabric is gputlbd's scheduler. A Coordinator owns the job
// queue and journals, expands each submitted grid into cell batches, and
// leases them to workers; it is the only scheduler in every mode that
// owns jobs. In the default mode its one worker is in-process
// (Coordinator.AddLocalWorker): batches go straight onto the worker's run
// queue and each outcome straight into the coordinator's ingest path, and
// a journal write that fails fails the job; such a coordinator refuses
// remote workers. In -coordinator mode the workers are remote daemons
// reached over HTTP. A
// Worker is the same runner pool, retry loop, per-attempt timeout and
// fault-injection hook either way; only the transport differs.
//
// Clients see one /jobs API and byte-identical result artifacts whatever
// the deployment, so evaluate -daemon and characterize -daemon point at
// any gputlbd. Underneath, the coordinator adds:
//
//   - Work distribution with stealing. Cells of the active job are leased
//     to workers in small batches, throttled by each worker's parallelism.
//     When the pending queue drains and a worker sits idle while another
//     still holds unfinished leases, the idle worker is leased the same
//     cells; cells are pure functions of their spec, so whichever copy
//     lands first wins and the duplicate is dropped.
//   - Failure recovery. Remote workers heartbeat; one that misses its
//     lease timeout is dropped and its unfinished cells return to the
//     pending queue. A dispatch that fails outright requeues immediately.
//     Every completed cell is journaled in internal/jobs' fsync'd JSONL
//     format (with a worker attribution field) before it is acknowledged,
//     so a restarted coordinator resumes mid-job. A result batch naming a
//     cell its job does not have is rejected whole.
//   - A content-addressed result cache. Every cell's canonical hash
//     (CellKey) keys a bounded LRU of completed results; overlapping
//     grids across jobs — and across users — are served from cache
//     instead of re-simulated. The key includes an explicit serialization
//     tag so serial and sharded/l2-sliced variants never alias.
//   - Batched result return. Remote workers flush completed cells back
//     through a size + max-wait batcher, so grids of small cells do not
//     pay one HTTP round trip per cell. The in-process worker skips it.
//
// Drain stops dispatch, lets the in-process worker's in-flight cells
// finish and journal, and leaves the active job checkpointed.
package fabric
