/**
 * @file
 * Source-level metadata for trace PCs.
 *
 * The paper augments ChampSim output with per-PC function names, source
 * snippets, and disassembly (§5 "Traces and Metadata"). Real SPEC
 * binaries are not available offline, so each workload model registers
 * a symbol table describing its synthetic functions; disassembly text
 * is generated deterministically per PC so that identical PCs always
 * render identical assembly context (required for exact-match grading).
 */

#ifndef CACHEMIND_TRACE_SYMBOLS_HH
#define CACHEMIND_TRACE_SYMBOLS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cachemind::trace {

/** One synthetic function: a PC range plus source-level context. */
struct FunctionInfo
{
    /** Mangled or plain function name, e.g. "primal_bea_mpp". */
    std::string name;
    /** First PC of the function body. */
    std::uint64_t pc_begin = 0;
    /** One past the last PC. */
    std::uint64_t pc_end = 0;
    /** Short C-like source snippet representative of the function. */
    std::string source;
};

/**
 * Maps PCs to functions and renders synthetic disassembly.
 *
 * Lookup is by PC range; functions must not overlap.
 */
class SymbolTable
{
  public:
    /** Register a function; ranges must be disjoint. */
    void addFunction(FunctionInfo fn);

    /** Function covering `pc`, or nullptr if unknown. */
    const FunctionInfo *functionFor(std::uint64_t pc) const;

    /** Function name for `pc`, or "unknown". */
    std::string functionName(std::uint64_t pc) const;

    /** Source snippet for `pc`, or an empty string. */
    std::string sourceFor(std::uint64_t pc) const;

    /**
     * Render a few lines of synthetic x86-flavoured disassembly around
     * `pc`. Deterministic: same pc yields the same text.
     *
     * @param pc      anchor program counter
     * @param context number of instructions before/after the anchor
     */
    std::string assemblyAround(std::uint64_t pc, int context = 2) const;

    /** All registered functions in ascending PC order. */
    const std::vector<FunctionInfo> &functions() const
    {
        return functions_;
    }

  private:
    std::vector<FunctionInfo> functions_; // sorted by pc_begin
};

/**
 * Deterministically render a single synthetic instruction at `pc`:
 * the text of `pc`'s line in SymbolTable::assemblyAround. Exposed for
 * tests.
 */
std::string renderInstruction(std::uint64_t pc);

} // namespace cachemind::trace

#endif // CACHEMIND_TRACE_SYMBOLS_HH
