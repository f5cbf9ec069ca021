/**
 * @file
 * Test helper: retrieve evidence for a question string. Retrievers
 * take parsed questions; this parses the way the engine does, with the
 * vocabulary of the shard view the retriever serves, then retrieves
 * with a discarding sink.
 */

#ifndef CACHEMIND_TESTS_RETRIEVE_TEXT_HH
#define CACHEMIND_TESTS_RETRIEVE_TEXT_HH

#include <string>

#include "db/shard.hh"
#include "query/parser.hh"
#include "retrieval/context.hh"

/** Parse `question` over `shards`' vocabulary, then retrieve. */
inline cachemind::retrieval::ContextBundle
retrieveText(cachemind::retrieval::Retriever &retriever,
             const cachemind::db::ShardSet &shards,
             const std::string &question)
{
    const cachemind::query::NlQueryParser parser(shards.workloads(),
                                                 shards.policies());
    return retriever.retrieveParsed(parser.parse(question));
}

#endif // CACHEMIND_TESTS_RETRIEVE_TEXT_HH
