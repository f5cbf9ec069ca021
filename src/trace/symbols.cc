#include "trace/symbols.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"
#include "base/random.hh"
#include "base/str.hh"

namespace cachemind::trace {

void
SymbolTable::addFunction(FunctionInfo fn)
{
    CM_ASSERT(fn.pc_begin < fn.pc_end, "empty function PC range");
    for (const auto &f : functions_) {
        const bool disjoint =
            fn.pc_end <= f.pc_begin || fn.pc_begin >= f.pc_end;
        if (!disjoint) {
            CM_PANIC("overlapping function ranges: ", f.name, " and ",
                     fn.name);
        }
    }
    functions_.push_back(std::move(fn));
    std::sort(functions_.begin(), functions_.end(),
              [](const FunctionInfo &a, const FunctionInfo &b) {
                  return a.pc_begin < b.pc_begin;
              });
}

const FunctionInfo *
SymbolTable::functionFor(std::uint64_t pc) const
{
    // functions_ is small (tens of entries); linear scan is fine and
    // keeps the structure trivially correct.
    for (const auto &f : functions_) {
        if (pc >= f.pc_begin && pc < f.pc_end)
            return &f;
    }
    return nullptr;
}

std::string
SymbolTable::functionName(std::uint64_t pc) const
{
    const FunctionInfo *f = functionFor(pc);
    return f ? f->name : std::string("unknown");
}

std::string
SymbolTable::sourceFor(std::uint64_t pc) const
{
    const FunctionInfo *f = functionFor(pc);
    return f ? f->source : std::string();
}

namespace {

/** Plausible instruction templates, chosen by PC hash; '#' = immediate. */
const char *const instr_templates[] = {
    "mov    -0x#(%rbp),%eax",
    "mov    (%rax,%rbx,8),%rdx",
    "lea    0x#(%rsi),%rdi",
    "add    $0x#,%rax",
    "cmp    %edx,%eax",
    "test   %al,%al",
    "movsd  (%r12,%r13,8),%xmm0",
    "mulsd  %xmm1,%xmm0",
    "mov    %rax,0x#(%rsp)",
    "imul   $0x#,%rbx,%rbx",
    "movzbl (%rdi),%eax",
    "sub    %rcx,%rdx",
};

const char *const branch_templates[] = {
    "jne    0x#",
    "je     0x#",
    "jmp    0x#",
    "jle    0x#",
};

void
appendInstruction(std::string &out, std::uint64_t pc)
{
    const std::uint64_t h = splitMix64(pc * 0x9e3779b97f4a7c15ULL + 1);
    const char *tmpl = nullptr;
    std::uint64_t imm = 0;
    if ((h & 0xff) < 0x28) {
        tmpl = branch_templates[(h >> 8) % std::size(branch_templates)];
        imm = pc + ((h >> 16) & 0x1ff) - 0x100; // the branch target
    } else {
        tmpl = instr_templates[(h >> 8) % std::size(instr_templates)];
        imm = h >> 20;
    }
    str::appendHex(out, pc);
    out += ": ";
    // The template, its '#' spelled as the immediate's low 12 bits.
    const char *mark = std::strchr(tmpl, '#');
    out.append(tmpl, mark ? mark - tmpl : std::strlen(tmpl));
    if (mark) {
        str::appendHex(out, imm & 0xfff);
        out += mark + 1;
    }
}

} // namespace

std::string
renderInstruction(std::uint64_t pc)
{
    std::string out;
    appendInstruction(out, pc);
    return out;
}

std::string
SymbolTable::assemblyAround(std::uint64_t pc, int context) const
{
    // A header and 2 * context + 1 instructions, under 48 bytes each.
    std::string out;
    out.reserve(48 * (2 * static_cast<std::size_t>(std::max(context, 0)) + 2));
    const FunctionInfo *f = functionFor(pc);
    if (f)
        out.append("<").append(f->name).append(">:\n");
    // Synthetic encoding: instructions are 4 bytes apart.
    for (int i = -context; i <= context; ++i) {
        const std::uint64_t cur = pc + static_cast<std::uint64_t>(i) * 4;
        if (f && (cur < f->pc_begin || cur >= f->pc_end))
            continue;
        out += cur == pc ? " => " : "    ";
        appendInstruction(out, cur);
        out += '\n';
    }
    return out;
}

} // namespace cachemind::trace
