/**
 * @file
 * Cooperative graceful shutdown for long simulation sweeps.
 *
 * The seed tree ignored SIGINT/SIGTERM entirely: the default
 * disposition killed a sweep wherever it happened to be, which could
 * leave `.tmp-*` files behind in a shared REDSOC_CACHE_DIR (the
 * rename-based publish itself is atomic, so *entries* never tear, but
 * the staging files of writes that never reached the rename leaked).
 * Tools that run long simulation batches now install a handler that
 * only sets state; every long loop polls it at a natural boundary:
 *
 *  - SimDriver::prefetch stops submitting queued points and discards
 *    the not-yet-started remainder;
 *  - OooCore::run / Processor::run poll every few thousand cycles
 *    and abort the in-flight simulation with ShutdownInterrupt once
 *    a signal has arrived — the aborted point is simply never
 *    stored, so the cache write is "discarded atomically" by never
 *    starting.
 *
 * The handler side is async-signal-safe (one atomic increment) and
 * the polling side lock-free (one relaxed load).
 */

#ifndef REDSOC_COMMON_SHUTDOWN_H
#define REDSOC_COMMON_SHUTDOWN_H

#include <stdexcept>

namespace redsoc {

/**
 * Thrown out of a simulation loop once an installed shutdown handler
 * has seen a signal (see installGracefulShutdown). Tool mains catch
 * it, clean up, and exit 130 — it is a request, not an error.
 */
class ShutdownInterrupt : public std::runtime_error
{
  public:
    ShutdownInterrupt();
};

/**
 * Install the SIGINT/SIGTERM handler (idempotent). Until this is
 * called, nothing in the library changes behavior:
 * shutdownRequested() returns false. After it, the first signal
 * stops everything promptly: loops stop picking up new work and
 * in-flight simulations throw ShutdownInterrupt at their next poll.
 */
void installGracefulShutdown();

/** True once an installed handler has seen at least one signal. */
bool shutdownRequested();

} // namespace redsoc

#endif // REDSOC_COMMON_SHUTDOWN_H
