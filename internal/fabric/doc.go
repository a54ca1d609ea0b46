// Package fabric is gputlbd's scheduler. A Coordinator owns the job
// queue and journals, expands each submitted grid into cell batches, and
// leases them to workers; it is the only scheduler in every mode that
// owns jobs. In the default mode its one worker is in-process
// (Coordinator.AddLocalWorker): batches go straight onto the worker's run
// queue and each flush of outcomes straight into the coordinator's ingest
// path, and a journal write that fails fails the job; such a coordinator
// refuses remote workers. In -coordinator mode the workers are remote
// daemons reached over HTTP. A Worker is the same runner pool, retry
// loop, fault-injection hook and delivery loop either way; only the
// flush at the end of the delivery loop differs.
//
// Clients see one /jobs API and byte-identical result artifacts whatever
// the deployment, so evaluate -daemon points at any gputlbd. Underneath,
// the coordinator adds:
//
//   - Concurrent jobs. The queue is FIFO, and the next queued job is
//     activated whenever some worker has lease room (two cells per
//     runner) that no active job's pending cell can fill, so no worker
//     idles while another holds all of a small job, and one job's
//     finalize overlaps the next one's cells. Leasing, stealing,
//     journaling, failure and Drain checkpointing are all per job.
//   - Work distribution with stealing. Cells of the active jobs are
//     leased to workers in small batches, oldest job first, throttled by
//     each worker's parallelism. When nothing is left to lease and a
//     worker has room while another still holds unfinished leases, the
//     worker with room is leased the same cells; cells are pure
//     functions of their spec, so whichever copy lands first wins and
//     the duplicate is dropped.
//   - Failure recovery. Remote workers heartbeat at the period the
//     coordinator assigns when they register, a tenth of its lease
//     timeout; one silent for the whole lease timeout is dropped and its
//     unfinished cells return to the pending queue. A dispatch that fails outright requeues immediately.
//     Every completed cell is journaled in internal/jobs' fsync'd JSONL
//     format (with a worker attribution field) before it is acknowledged,
//     so a restarted coordinator resumes mid-job. A result batch naming a
//     cell its job does not have is rejected whole.
//   - A content-addressed result cache. Every cell's canonical hash
//     (CellKey) keys a bounded LRU of completed results, looked up as
//     each cell is about to be leased; overlapping grids across jobs —
//     and across users — are served from cache instead of re-simulated.
//     A cell whose key another lease is computing waits for that
//     outcome, and is dispatched only if it fails. A cell names no engine: every cell runs on
//     the serial engine, so the key holds none.
//   - Group-commit result return. A worker flushes a finished cell at
//     once when no flush is in flight; cells finishing while one is go
//     together in the next (at most 32 each). An idle worker's lone cell
//     never waits, and under load the batches grow by themselves, so
//     grids of small cells do not pay one journal fsync (and, for a
//     remote worker, one HTTP round trip) per cell. A remote worker's
//     flush is a POST to /results; the in-process worker's is one call of
//     the coordinator's ingest path.
//
// Drain stops dispatch, lets the in-process worker's in-flight cells
// finish and journal, and leaves every active job checkpointed.
package fabric
