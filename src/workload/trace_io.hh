/**
 * @file
 * The native trace format: record a workload's stream as portable
 * text, and parse it back one line at a time. Files are read by
 * StreamingTraceWorkload (streaming_trace.hh), whose native decoder
 * calls parseTraceLine, so users can drive the simulator with their
 * own reference streams instead of the synthetic profiles.
 *
 * Format: one instruction per line,
 *   <op> <pc-hex> <eff-addr-hex> <latency> <dep1> <dep2> <taken>
 * with op one of I F L S B; taken branches append a hex target;
 * '#' starts a comment line.
 *
 * Parsing is strict: every field must be consumed exactly (no
 * trailing junk after a valid numeric prefix), out-of-range values
 * (latency/deps above 255, hex wider than 64 bits) are rejected
 * instead of silently wrapped, and negative values never parse (the
 * numeric fields are unsigned). The streaming reader prefixes errors
 * with `file:line:` so the CLI can report them one-line and exit 2.
 */

#ifndef RCACHE_WORKLOAD_TRACE_IO_HH
#define RCACHE_WORKLOAD_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "workload/workload.hh"

namespace rcache
{

/** Record @p count instructions of @p source into @p os. */
void writeTrace(std::ostream &os, Workload &source,
                std::uint64_t count);

/** Serialize one instruction as a native-format trace line. */
void writeTraceLine(std::ostream &os, const MicroInst &m);

/**
 * Parse one native-format trace line (comments/blank lines are the
 * caller's business). Strict: the whole line must be consumed.
 * @return false with @p why set (no line/file prefix) on a malformed
 *         line
 */
bool parseTraceLine(const std::string &line, MicroInst &m,
                    std::string *why);

/** Single-character opcode used in the trace format. */
char opClassCode(OpClass op);
/** Inverse of opClassCode; fatal on an unknown code. */
OpClass opClassFromCode(char code);

} // namespace rcache

#endif // RCACHE_WORKLOAD_TRACE_IO_HH
