/**
 * @file
 * Artificial slowdown for demonstrating that the benchmark's bounds
 * catch a slower simulation loop. Compiled in only when the build
 * sets PERFBENCH_SLOWDOWN_SPIN above 0 (see CMakeLists.txt); the
 * default build never changes the program.
 */

#ifndef PERFBENCH_SLOWDOWN_HH
#define PERFBENCH_SLOWDOWN_HH

namespace perfbench {

constexpr unsigned kSlowdownSpin = PERFBENCH_SLOWDOWN_SPIN;

/** Wrap every registered scheme's organization in a decorator that
 *  spins kSlowdownSpin iterations per demand access; no-op at 0. */
void installSlowdown();

} // namespace perfbench

#endif // PERFBENCH_SLOWDOWN_HH
