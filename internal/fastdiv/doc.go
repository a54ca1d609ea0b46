// Package fastdiv divides by a divisor fixed at construction without a
// hardware divide on the common path. The simulator's set, partition and
// bank selections divide every access by a machine constant (1,536 L2
// sets, 12 memory partitions), and an integer divide costs tens of cycles
// where a multiply costs a few. A power of two becomes a shift and a
// mask; any other divisor below 2^32 uses Lemire's multiply for dividends
// below 2^32; anything wider falls back to % and /. Every path is exact.
package fastdiv
