#include "graph/graph_client.h"

#include <algorithm>
#include <memory>
#include <queue>
#include <unordered_set>
#include <utility>

namespace scads {

namespace {

// Same 2-byte spread prefix the benches use, salted per record kind so a
// user's adjacency and post records land on independent partitions.
std::string SpreadKey(uint64_t user, uint32_t salt, const char* kind) {
  uint32_t spread =
      static_cast<uint32_t>((user * 2654435761ULL + salt * 0x9e3779b9ULL) & 0xffff);
  std::string key;
  key.push_back(static_cast<char>((spread >> 8) & 0xff));
  key.push_back(static_cast<char>(spread & 0xff));
  key += kind;
  key += std::to_string(user);
  return key;
}

Status DecodeFailure(const char* what) {
  return InternalError(std::string("graph record failed to decode: ") + what);
}

}  // namespace

bool FeedRanksBefore(const FeedItem& a, const FeedItem& b) {
  if (a.ts != b.ts) return a.ts > b.ts;
  if (a.author != b.author) return a.author < b.author;
  return a.seq > b.seq;
}

GraphClient::GraphClient(ScadsClient client, GraphClientConfig config)
    : client_(client), config_(config) {}

std::string GraphClient::AdjacencyKey(uint64_t user) {
  return SpreadKey(user, 0x67613a00u, "ga:");
}

std::string GraphClient::PostsKey(uint64_t user) {
  return SpreadKey(user, 0x67703a00u, "gp:");
}

void GraphClient::Feed(uint64_t user, size_t k, RequestOptions options,
                       std::function<void(Result<std::vector<FeedItem>>)> callback) {
  options.Arm(client_.loop()->Now());
  auto fail = [this, callback](Status status) {
    ++stats_.feeds_failed;
    callback(std::move(status));
  };
  // Hop 0: the user's own follow list.
  client_.router()->Get(
      AdjacencyKey(user), options,
      [this, user, k, options, callback, fail](Result<Record> adj) {
        std::vector<uint64_t> follows;
        if (adj.ok()) {
          if (!AdjacencyCodec::Decode(adj->value, &follows)) {
            fail(DecodeFailure("adjacency"));
            return;
          }
        } else if (!IsNotFound(adj.status())) {
          fail(adj.status());
          return;
        }
        if (follows.empty()) {
          ++stats_.feeds_ok;
          callback(std::vector<FeedItem>{});
          return;
        }
        // Hop 1: hydrate the followees' follow lists as one batched
        // scatter-gather, exactly like the index executor's two-hop path.
        std::vector<std::string> adj_keys;
        adj_keys.reserve(follows.size());
        for (uint64_t f : follows) adj_keys.push_back(AdjacencyKey(f));
        client_.router()->MultiGet(
            adj_keys, options,
            [this, user, k, options, callback, fail,
             follows = std::move(follows)](std::vector<Result<Record>> lists) {
              // Merge-order dedupe before the post fan-out: one-hop
              // followees first (in list order), then each followee's own
              // list in order. A neighbor reachable through several
              // followees hydrates once.
              std::vector<uint64_t> neighbors;
              std::unordered_set<uint64_t> seen;
              seen.insert(user);
              auto add = [this, &neighbors, &seen](uint64_t id) {
                if (seen.insert(id).second) {
                  neighbors.push_back(id);
                } else {
                  ++stats_.feed_dupes_dropped;
                }
              };
              for (uint64_t f : follows) add(f);
              std::vector<uint64_t> hop2;
              for (size_t i = 0; i < lists.size(); ++i) {
                if (!lists[i].ok()) {
                  if (IsNotFound(lists[i].status())) continue;
                  fail(lists[i].status());
                  return;
                }
                if (!AdjacencyCodec::Decode(lists[i]->value, &hop2)) {
                  fail(DecodeFailure("two-hop adjacency"));
                  return;
                }
                for (uint64_t id : hop2) add(id);
              }
              stats_.feed_fanout += static_cast<int64_t>(neighbors.size());
              // Hop 2: the deduped neighborhood's post runs, one batch.
              std::vector<std::string> post_keys;
              post_keys.reserve(neighbors.size());
              for (uint64_t n : neighbors) post_keys.push_back(PostsKey(n));
              client_.router()->MultiGet(
                  post_keys, options,
                  [this, k, callback, fail,
                   neighbors = std::move(neighbors)](std::vector<Result<Record>> runs) {
                    // Bounded top-K: a min-heap of at most k items whose
                    // top is the current worst-ranked keeper.
                    auto worse_on_top = [](const FeedItem& a, const FeedItem& b) {
                      return FeedRanksBefore(a, b);
                    };
                    std::priority_queue<FeedItem, std::vector<FeedItem>,
                                        decltype(worse_on_top)>
                        heap(worse_on_top);
                    std::vector<PostRef> run;
                    for (size_t i = 0; i < runs.size(); ++i) {
                      if (!runs[i].ok()) {
                        if (IsNotFound(runs[i].status())) continue;
                        fail(runs[i].status());
                        return;
                      }
                      if (!PostLogCodec::Decode(runs[i]->value, &run)) {
                        fail(DecodeFailure("post run"));
                        return;
                      }
                      if (k == 0) continue;  // still validate every run above
                      for (const PostRef& post : run) {
                        FeedItem item{neighbors[i], post.seq, post.ts};
                        if (heap.size() < k) {
                          heap.push(item);
                        } else if (k > 0 && FeedRanksBefore(item, heap.top())) {
                          heap.pop();
                          heap.push(item);
                        } else {
                          // Runs are newest-first: everything after this
                          // post ranks below it, so the rest of the run
                          // can't place either... except on author ties,
                          // which FeedRanksBefore breaks by author/seq —
                          // equal-ts posts from a "better" author could
                          // still land. Keep scanning only in that narrow
                          // case.
                          if (post.ts < heap.top().ts) break;
                        }
                      }
                    }
                    std::vector<FeedItem> items(heap.size());
                    for (size_t i = items.size(); i-- > 0;) {
                      items[i] = heap.top();
                      heap.pop();
                    }
                    ++stats_.feeds_ok;
                    callback(std::move(items));
                  });
            });
      });
}

void GraphClient::Follow(uint64_t user, uint64_t target, RequestOptions options,
                         std::function<void(Status)> callback) {
  Mutate(AdjacencyKey(user),
         [target](const std::optional<Record>&, std::string* encoded) {
           return AdjacencyCodec::Append(encoded, target);
         },
         std::move(options), std::move(callback));
}

void GraphClient::Unfollow(uint64_t user, uint64_t target, RequestOptions options,
                           std::function<void(Status)> callback) {
  Mutate(AdjacencyKey(user),
         [target](const std::optional<Record>&, std::string* encoded) {
           return AdjacencyCodec::Remove(encoded, target);
         },
         std::move(options), std::move(callback));
}

void GraphClient::Post(uint64_t user, PostRef post, RequestOptions options,
                       std::function<void(Status)> callback) {
  size_t cap = config_.post_run_cap;
  Mutate(PostsKey(user),
         [post, cap](const std::optional<Record>&, std::string* encoded) {
           return PostLogCodec::Append(encoded, post, cap);
         },
         std::move(options), std::move(callback));
}

void GraphClient::Mutate(const std::string& key, CasMutation mutate, RequestOptions options,
                         std::function<void(Status)> callback) {
  ReadModifyWrite(client_.router(), key, config_.ack, std::move(options), config_.cas_retries,
                  std::move(mutate), [this, callback = std::move(callback)](CasResult result) {
    stats_.cas_conflicts += result.conflicts;
    if (!result.status.ok()) {
      ++stats_.mutations_failed;
    } else if (!result.stored.has_value()) {
      // Idempotent no-op (edge/post already in the state we want): no
      // write was spent on it.
      ++stats_.mutations_noop;
    } else {
      ++stats_.mutations_ok;
    }
    callback(std::move(result.status));
  });
}

}  // namespace scads
