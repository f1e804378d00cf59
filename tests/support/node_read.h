// ReadAtNode: a one-key point read served straight at a storage node,
// through HandleMultiGet — the node's one read handler, which the router's
// point reads reach as one-key sub-batches too. Node-level tests use it to
// drive admission, queueing and engine IO without a router in between.

#ifndef SCADS_TESTS_SUPPORT_NODE_READ_H_
#define SCADS_TESTS_SUPPORT_NODE_READ_H_

#include <functional>
#include <string>
#include <utility>

#include "cluster/node.h"
#include "common/request_options.h"
#include "common/result.h"
#include "storage/engine.h"

namespace scads {

/// Reads `key` at `node` with `priority`; `respond` gets the key's result
/// (kResourceExhausted when the node sheds it). A dead node never responds.
inline void ReadAtNode(StorageNode* node, std::string key, RequestPriority priority,
                       std::function<void(Result<Record>)> respond) {
  node->HandleMultiGet({std::move(key)}, priority,
                       [respond = std::move(respond)](MultiGetReply reply) {
                         respond(std::move(reply.results[0]));
                       });
}

}  // namespace scads

#endif  // SCADS_TESTS_SUPPORT_NODE_READ_H_
