/**
 * @file
 * Natural-language query parser (§3.2.1–3.2.2 of the paper).
 *
 * Stage 1 extracts workload and policy names with the semantic name
 * matcher (embedding + fuzzy ranking); stage 2 extracts symbolic PC,
 * address, and set filters; keyword rules classify the intent.
 */

#ifndef CACHEMIND_QUERY_PARSER_HH
#define CACHEMIND_QUERY_PARSER_HH

#include "query/parsed_query.hh"
#include "text/embedding.hh"

namespace cachemind::query {

/**
 * Parser configured with the known workload and policy vocabulary.
 * The constructor prepares one name index per vocabulary; each parse
 * lower-cases, tokenizes and embeds the question once and ranks both
 * vocabularies against that.
 */
class NlQueryParser
{
  public:
    NlQueryParser(std::vector<std::string> workload_names,
                  std::vector<std::string> policy_names);

    /** Parse free text into a structured query. */
    ParsedQuery parse(const std::string &text) const;

    const std::vector<std::string> &workloadNames() const
    {
        return workload_index_.names();
    }
    const std::vector<std::string> &policyNames() const
    {
        return policy_index_.names();
    }

  private:
    QueryIntent classifyIntent(const std::string &lower,
                               const ParsedQuery &slots) const;

    text::HashEmbedder embedder_;
    text::NameIndex workload_index_;
    text::NameIndex policy_index_;
};

} // namespace cachemind::query

#endif // CACHEMIND_QUERY_PARSER_HH
