#include "llm/prompt.hh"

#include <sstream>

namespace cachemind::llm {

const char *
shotModeName(ShotMode mode)
{
    switch (mode) {
      case ShotMode::ZeroShot: return "zero-shot";
      case ShotMode::OneShot: return "one-shot";
      case ShotMode::FewShot: return "few-shot";
    }
    return "?";
}

std::string
Prompt::render() const
{
    std::ostringstream os;
    os << "SYSTEM:\n" << system << "\n\n";
    for (std::size_t i = 0; i < shots.size(); ++i) {
        os << "EXAMPLE " << i + 1 << ":\nContext:\n" << shots[i].context
           << "\nQuestion: " << shots[i].question << "\nAnswer: "
           << shots[i].answer << "\n\n";
    }
    os << "Context:\n" << context << "\nQuestion: " << question
       << "\nAnswer:";
    return os.str();
}

bool
hasTrickShot(const std::vector<ExampleShot> &shots)
{
    for (const auto &s : shots) {
        if (s.demonstrates_trick)
            return true;
    }
    return false;
}

const std::string &
defaultSystemPrompt()
{
    static const std::string prompt =
        "You are CacheMind, a cache-replacement analysis assistant. "
        "Answer strictly from the retrieved trace context. Cite the "
        "PCs, addresses, and statistics you use. If the premise of "
        "the question contradicts the trace (wrong workload, PC, or "
        "address), say so instead of guessing.";
    return prompt;
}

const std::vector<ExampleShot> &
canonicalShots(ShotMode mode)
{
    // One-shot prompts carry the Figure 6 hit/miss example; few-shot
    // prompts add a per-PC statistic and a rejected false premise.
    static const std::vector<ExampleShot> few_shot = {
        {"For policy LRU on workload lbm at PC 0x401dc9 and address "
         "0x47ea85d37f: Cache result: Cache Miss. Evicted address "
         "0x19e02d19b7f (needed again in 2304 accesses), inserted "
         "address needed again in 3132 accesses.",
         "Does the memory access with PC 0x401dc9 and address "
         "0x47ea85d37f result in a cache hit or cache miss for the lbm "
         "workload and LRU replacement policy?",
         "Cache Miss", false},
        {"Per-PC statistics for mcf under LRU: pc=0x4037aa "
         "accesses=51210 miss_rate=99.12%.",
         "What is the miss rate for PC 0x4037aa in mcf with LRU?",
         "The miss rate for PC 0x4037aa is 99.12%.", false},
        {"Premise check: PC 0x4090c3 does not appear in trace "
         "mcf_evictions_lru. It appears in astar_evictions_lru "
         "instead.",
         "How many times does PC 0x4090c3 miss in mcf under LRU?",
         "TRICK: the premise is wrong - PC 0x4090c3 belongs to "
         "astar, not mcf.", true},
    };
    static const std::vector<ExampleShot> one_shot(few_shot.begin(),
                                                   few_shot.begin() + 1);
    static const std::vector<ExampleShot> zero_shot;
    return mode == ShotMode::FewShot   ? few_shot
           : mode == ShotMode::OneShot ? one_shot
                                       : zero_shot;
}

} // namespace cachemind::llm
