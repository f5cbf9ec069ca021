/**
 * @file
 * Prompt assembly: system prompt, one-/few-shot example shots, the
 * rendered retrieval context, and the user question (Figures 3 and 6
 * of the paper).
 */

#ifndef CACHEMIND_LLM_PROMPT_HH
#define CACHEMIND_LLM_PROMPT_HH

#include <string>
#include <vector>

namespace cachemind::llm {

/** Prompting strategy (§6.1 "One and Few-shot Prompting"). */
enum class ShotMode { ZeroShot, OneShot, FewShot };

const char *shotModeName(ShotMode mode);

/** One worked example placed in the prompt. */
struct ExampleShot
{
    /** The example's retrieval context. */
    std::string context;
    std::string question;
    std::string answer;
    /** True when the example demonstrates rejecting a false premise. */
    bool demonstrates_trick = false;
};

/** True when one of `shots` demonstrates rejecting a false premise. */
bool hasTrickShot(const std::vector<ExampleShot> &shots);

/** Assembled prompt. */
struct Prompt
{
    std::string system;
    std::vector<ExampleShot> shots;
    /** Rendered retrieval context for the actual question. */
    std::string context;
    std::string question;

    /** Full text as it would be sent to a completion API. */
    std::string render() const;
};

/** The generator's default system prompt. */
const std::string &defaultSystemPrompt();

/** Canonical example shots used by the prompting ablation (Fig. 6). */
const std::vector<ExampleShot> &canonicalShots(ShotMode mode);

} // namespace cachemind::llm

#endif // CACHEMIND_LLM_PROMPT_HH
