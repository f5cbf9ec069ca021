/**
 * @file
 * Property tests over the workload models (parameterized across every
 * workload): determinism, PC/symbol coverage, and the per-workload
 * memory phenomenology the paper's analyses depend on.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "base/random.hh"
#include "policy/basic_policies.hh"
#include "sim/llc_replay.hh"
#include "trace/workload.hh"
#include "trace/workload_models.hh"

using namespace cachemind;
using trace::WorkloadKind;

class WorkloadParamTest
    : public ::testing::TestWithParam<trace::WorkloadKind>
{
};

TEST_P(WorkloadParamTest, GenerationIsDeterministic)
{
    auto a = trace::makeWorkload(GetParam());
    auto b = trace::makeWorkload(GetParam());
    const auto ta = a->generate(5000);
    const auto tb = b->generate(5000);
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t i = 0; i < ta.size(); ++i) {
        EXPECT_EQ(ta[i].pc, tb[i].pc);
        EXPECT_EQ(ta[i].address, tb[i].address);
        EXPECT_EQ(ta[i].instr_id, tb[i].instr_id);
    }
}

TEST_P(WorkloadParamTest, DifferentSeedsChangeTheTrace)
{
    auto a = trace::makeWorkload(GetParam(), 1);
    auto b = trace::makeWorkload(GetParam(), 2);
    const auto ta = a->generate(3000);
    const auto tb = b->generate(3000);
    std::size_t same = 0;
    const std::size_t n = std::min(ta.size(), tb.size());
    for (std::size_t i = 0; i < n; ++i)
        same += ta[i].address == tb[i].address;
    EXPECT_LT(same, n); // at least some accesses must differ
}

TEST_P(WorkloadParamTest, RespectsRequestedLength)
{
    auto model = trace::makeWorkload(GetParam());
    const auto t = model->generate(20000);
    EXPECT_LE(t.size(), 20000u);
    EXPECT_GE(t.size(), 19000u); // within the builder's slack
}

TEST_P(WorkloadParamTest, InstructionIdsAreMonotone)
{
    auto model = trace::makeWorkload(GetParam());
    const auto t = model->generate(5000);
    for (std::size_t i = 1; i < t.size(); ++i)
        EXPECT_GT(t[i].instr_id, t[i - 1].instr_id);
    EXPECT_GE(t.instructions(), t.size());
}

TEST_P(WorkloadParamTest, EveryPcHasASymbol)
{
    auto model = trace::makeWorkload(GetParam());
    const auto t = model->generate(8000);
    std::set<std::uint64_t> pcs;
    for (const auto &r : t)
        pcs.insert(r.pc);
    EXPECT_GE(pcs.size(), 4u);
    for (const auto pc : pcs) {
        EXPECT_NE(model->symbols().functionName(pc), "unknown")
            << "pc " << std::hex << pc;
    }
}

TEST_P(WorkloadParamTest, InfoIsComplete)
{
    auto model = trace::makeWorkload(GetParam());
    EXPECT_FALSE(model->info().name.empty());
    EXPECT_GT(model->info().description.size(), 60u);
    EXPECT_GT(model->info().default_accesses, 10000u);
    EXPECT_EQ(model->info().name, trace::workloadName(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadParamTest,
    ::testing::ValuesIn(trace::allWorkloads()),
    [](const ::testing::TestParamInfo<trace::WorkloadKind> &info) {
        return trace::workloadName(info.param);
    });

TEST(WorkloadRegistryTest, NamesRoundTrip)
{
    for (const auto kind : trace::allWorkloads()) {
        trace::WorkloadKind parsed;
        ASSERT_TRUE(trace::workloadKindFromName(
            trace::workloadName(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
    trace::WorkloadKind parsed;
    EXPECT_FALSE(trace::workloadKindFromName("gcc", parsed));
    EXPECT_TRUE(trace::workloadKindFromName("  MCF  ", parsed));
    EXPECT_EQ(parsed, WorkloadKind::Mcf);
}

TEST(WorkloadPhenomenologyTest, McfIsMissDominated)
{
    const auto t = trace::makeWorkload(WorkloadKind::Mcf)->generate(
        60000);
    const auto stream = sim::captureLlcStream(t);
    sim::LlcReplayer rep(sim::defaultHierarchyConfig().llc,
                         std::make_unique<policy::LruPolicy>());
    const auto stats = rep.replay(stream, nullptr, nullptr);
    EXPECT_GT(stats.missRate(), 0.75);
}

TEST(WorkloadPhenomenologyTest, McfBasketPcHasHighHitRateAtLlc)
{
    // PC 0x4037ba (the candidate basket) is the paper's example of a
    // PC with notably *good* cache behaviour in mcf.
    const auto t = trace::makeWorkload(WorkloadKind::Mcf)->generate(
        120000);
    const auto stream = sim::captureLlcStream(t);
    std::uint64_t basket = 0, scan = 0;
    for (const auto &a : stream) {
        basket += a.pc == 0x4037ba;
        scan += a.pc == 0x4037aa;
    }
    // The scan PC floods the LLC; the basket PC is mostly filtered by
    // L1/L2 (strong locality) so it reaches the LLC far less often.
    EXPECT_GT(scan, basket * 2);
}

TEST(WorkloadPhenomenologyTest, MicrobenchHasOneDominantMissPc)
{
    const auto t =
        trace::makeWorkload(WorkloadKind::Microbench)->generate(80000);
    const auto stream = sim::captureLlcStream(t);
    std::map<std::uint64_t, std::uint64_t> counts;
    for (const auto &a : stream)
        ++counts[a.pc];
    std::uint64_t chase = counts[0x400512];
    std::uint64_t total = 0;
    for (const auto &[pc, n] : counts)
        total += n;
    EXPECT_GT(chase, total / 2); // the chase PC dominates LLC traffic
}

TEST(WorkloadPhenomenologyTest, MicrobenchPrefetchVariantAddsPrefetches)
{
    auto plain = trace::makeMicrobenchModel(7);
    auto fixed = trace::makeMicrobenchModel(7, 16);
    const auto tp = plain->generate(20000);
    const auto tf = fixed->generate(20000);
    std::size_t plain_pf = 0, fixed_pf = 0;
    for (const auto &r : tp)
        plain_pf += r.type == trace::AccessType::Prefetch;
    for (const auto &r : tf)
        fixed_pf += r.type == trace::AccessType::Prefetch;
    EXPECT_EQ(plain_pf, 0u);
    EXPECT_GT(fixed_pf, 1000u);
}

TEST(WorkloadPhenomenologyTest, MilcSweepPcIsStableGatherIsNot)
{
    // Full default length: the sweep period must repeat a few times
    // before per-PC reuse distances are observable at the LLC.
    const auto t = trace::makeWorkload(WorkloadKind::Milc)->generate();
    const auto stream = sim::captureLlcStream(t);
    const auto oracle = sim::computeOracle(stream);

    auto reuse_cov = [&](std::uint64_t pc) {
        double sum = 0.0, sum2 = 0.0;
        std::size_t n = 0;
        for (std::size_t i = 0; i < stream.size(); ++i) {
            if (stream[i].pc != pc ||
                oracle.next_use[i] == policy::kNoNextUse) {
                continue;
            }
            const double rd =
                static_cast<double>(oracle.next_use[i] - i);
            sum += rd;
            sum2 += rd * rd;
            ++n;
        }
        if (n < 10 || sum <= 0.0)
            return 1e9;
        const double mean = sum / n;
        const double var = sum2 / n - mean * mean;
        return std::sqrt(std::max(0.0, var)) / mean;
    };
    // The regular sweep PC must be markedly more predictable than
    // the random gather PC.
    EXPECT_LT(reuse_cov(0x413930), reuse_cov(0x413948));
}

TEST(SymbolTableTest, AssemblyIsDeterministicAndAnchored)
{
    auto model = trace::makeWorkload(WorkloadKind::Mcf);
    const auto &symbols = model->symbols();
    const auto a = symbols.assemblyAround(0x4037aa);
    const auto b = symbols.assemblyAround(0x4037aa);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("primal_bea_mpp"), std::string::npos);
    EXPECT_NE(a.find("=>"), std::string::npos);
    EXPECT_NE(a.find("4037aa"), std::string::npos);
}

namespace {

// The original ostringstream disassembler, kept verbatim as the
// reference: renderInstruction and assemblyAround now append into one
// string, and their text must not change by a single byte. The one
// change from the original is the fix in referenceFormatTemplate's
// "%x" search (see there).
const char *const reference_instr_templates[] = {
    "mov    -0x%x(%%rbp),%%eax",
    "mov    (%%rax,%%rbx,8),%%rdx",
    "lea    0x%x(%%rsi),%%rdi",
    "add    $0x%x,%%rax",
    "cmp    %%edx,%%eax",
    "test   %%al,%%al",
    "movsd  (%%r12,%%r13,8),%%xmm0",
    "mulsd  %%xmm1,%%xmm0",
    "mov    %%rax,0x%x(%%rsp)",
    "imul   $0x%x,%%rbx,%%rbx",
    "movzbl (%%rdi),%%eax",
    "sub    %%rcx,%%rdx",
};

const char *const reference_branch_templates[] = {
    "jne    0x%x",
    "je     0x%x",
    "jmp    0x%x",
    "jle    0x%x",
};

std::string
referenceReplaceAll(std::string s, const std::string &from,
                    const std::string &to)
{
    if (from.empty())
        return s;
    std::size_t pos = 0;
    while ((pos = s.find(from, pos)) != std::string::npos) {
        s.replace(pos, from.size(), to);
        pos += to.size();
    }
    return s;
}

std::string
referenceFormatTemplate(const char *tmpl, std::uint64_t imm)
{
    std::string out(tmpl);
    const std::string imm_hex = [imm] {
        std::ostringstream os;
        os << std::hex << (imm & 0xfff);
        return os.str();
    }();
    // The fix: a "%x" that follows a '%' is the escaped sigil of a
    // register (%%xmm0), not the immediate; the original spliced the
    // immediate into it ("mulsd  %205mm1,%xmm0").
    auto pos = out.find("%x");
    while (pos != std::string::npos && pos > 0 && out[pos - 1] == '%')
        pos = out.find("%x", pos + 1);
    if (pos != std::string::npos)
        out.replace(pos, 2, imm_hex);
    // Collapse the escaped register sigils used in the template table.
    return referenceReplaceAll(out, "%%", "%");
}

std::string
referenceRenderInstruction(std::uint64_t pc)
{
    const std::uint64_t h = splitMix64(pc * 0x9e3779b97f4a7c15ULL + 1);
    std::ostringstream os;
    os << std::hex << pc << ": ";
    if ((h & 0xff) < 0x28) {
        const auto idx = (h >> 8) %
            (sizeof(reference_branch_templates) /
             sizeof(reference_branch_templates[0]));
        const std::uint64_t target = pc + ((h >> 16) & 0x1ff) - 0x100;
        os << referenceFormatTemplate(reference_branch_templates[idx],
                                      target);
    } else {
        const auto idx = (h >> 8) %
            (sizeof(reference_instr_templates) /
             sizeof(reference_instr_templates[0]));
        os << referenceFormatTemplate(reference_instr_templates[idx],
                                      h >> 20);
    }
    return os.str();
}

std::string
referenceAssemblyAround(const trace::SymbolTable &symbols,
                        std::uint64_t pc, int context)
{
    std::ostringstream os;
    const trace::FunctionInfo *f = symbols.functionFor(pc);
    if (f)
        os << "<" << f->name << ">:\n";
    // Synthetic encoding: instructions are 4 bytes apart.
    const std::uint64_t step = 4;
    for (int i = -context; i <= context; ++i) {
        const std::int64_t off = static_cast<std::int64_t>(i) *
                                 static_cast<std::int64_t>(step);
        const std::uint64_t cur =
            static_cast<std::uint64_t>(static_cast<std::int64_t>(pc) + off);
        if (f && (cur < f->pc_begin || cur >= f->pc_end))
            continue;
        os << (cur == pc ? " => " : "    ")
           << referenceRenderInstruction(cur) << "\n";
    }
    return os.str();
}

/** Every register the instruction templates name. */
const std::set<std::string> kTemplateRegisters = {
    "rbp", "eax", "rax", "rbx", "rdx", "rsi", "rdi", "edx", "al",
    "r12", "r13", "xmm0", "xmm1", "rsp", "rcx",
};

/** The '%' tokens of `text`: each '%' and the alphanumerics after it. */
std::vector<std::string>
percentTokens(const std::string &text)
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '%')
            continue;
        std::size_t j = i + 1;
        while (j < text.size() &&
               std::isalnum(static_cast<unsigned char>(text[j])))
            ++j;
        out.push_back(text.substr(i + 1, j - i - 1));
    }
    return out;
}

} // namespace

TEST(SymbolTableTest, AssemblyMatchesTheStreamReference)
{
    // Contexts 0-3 around every byte PC of every function of every
    // workload, plus PCs just outside each function (no header).
    std::size_t windows = 0;
    for (const auto kind : trace::allWorkloads()) {
        auto model = trace::makeWorkload(kind);
        const auto &symbols = model->symbols();
        for (const auto &f : symbols.functions()) {
            for (std::uint64_t pc = f.pc_begin - 16; pc < f.pc_end + 16;
                 ++pc) {
                for (int context = 0; context <= 3; ++context) {
                    ASSERT_EQ(symbols.assemblyAround(pc, context),
                              referenceAssemblyAround(symbols, pc,
                                                      context))
                        << std::hex << pc << " context " << context;
                    ++windows;
                }
            }
        }
        EXPECT_EQ(symbols.assemblyAround(0x4037aa),
                  referenceAssemblyAround(symbols, 0x4037aa, 2));
    }
    EXPECT_GT(windows, 10000u);
}

TEST(SymbolTableTest, InstructionsMatchTheStreamReference)
{
    Rng rng(0x61736dULL);
    for (int i = 0; i < 200000; ++i) {
        // Mix full-width PCs with text-segment-sized ones.
        const std::uint64_t pc =
            i % 2 ? rng.next() : 0x400000 + rng.nextBelow(0x100000);
        ASSERT_EQ(trace::renderInstruction(pc),
                  referenceRenderInstruction(pc))
            << std::hex << pc;
    }
    for (const std::uint64_t pc :
         {std::uint64_t{0}, std::uint64_t{0xff}, ~std::uint64_t{0}})
        EXPECT_EQ(trace::renderInstruction(pc),
                  referenceRenderInstruction(pc));
}

TEST(SymbolTableTest, RegisterOperandsNameTemplateRegisters)
{
    // Every '%' token names a register; none carries a spliced-in
    // immediate ("%205mm1" for %xmm1).
    const auto check = [](std::uint64_t pc) {
        const std::string text = trace::renderInstruction(pc);
        for (const std::string &reg : percentTokens(text)) {
            if (!kTemplateRegisters.count(reg)) {
                ADD_FAILURE() << "'%" << reg << "' in \"" << text << '"';
                return false;
            }
        }
        return true;
    };
    std::set<std::string> seen;
    for (const auto kind : trace::allWorkloads()) {
        auto model = trace::makeWorkload(kind);
        for (const auto &f : model->symbols().functions()) {
            for (std::uint64_t pc = f.pc_begin; pc < f.pc_end; ++pc) {
                ASSERT_TRUE(check(pc));
                for (const auto &reg :
                     percentTokens(trace::renderInstruction(pc)))
                    seen.insert(reg);
            }
        }
    }
    Rng rng(0x726567ULL);
    for (int i = 0; i < 100000; ++i)
        ASSERT_TRUE(check(rng.next()));
    // The function PCs reach every register of the table.
    EXPECT_EQ(seen, kTemplateRegisters);
}

TEST(SymbolTableTest, LookupBoundaries)
{
    trace::SymbolTable table;
    table.addFunction({"f", 0x100, 0x200, "src"});
    EXPECT_EQ(table.functionName(0x100), "f");
    EXPECT_EQ(table.functionName(0x1ff), "f");
    EXPECT_EQ(table.functionName(0x200), "unknown");
    EXPECT_EQ(table.functionName(0xff), "unknown");
    EXPECT_EQ(table.sourceFor(0x150), "src");
    EXPECT_TRUE(table.sourceFor(0x50).empty());
}
