#include "graph/social_workload.h"

#include <memory>
#include <utility>

#include "common/request_options.h"
#include "sim/event_loop.h"

namespace scads {

namespace {

// Zipf skew of which user acts (feeds) — hot consumers re-read feeds.
constexpr double kActorZipfTheta = 0.6;
// Top-K size of every feed.
constexpr size_t kFeedK = 20;

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

SocialWorkloadDriver::SocialWorkloadDriver(std::vector<GraphClient*> clients,
                                           SocialWorkloadConfig config, uint64_t seed)
    : clients_(std::move(clients)),
      config_(config),
      seed_(seed),
      next_seq_(static_cast<size_t>(config.users), 0) {}

SocialWorkloadDriver::Op SocialWorkloadDriver::DrawOp(Rng& rng, bool feed_only) const {
  Op op{OpKind::kFeed, 0, 0};
  op.actor = rng.Zipf(config_.users, kActorZipfTheta);
  if (!feed_only) {
    double total = config_.feed_fraction + config_.follow_fraction +
                   config_.unfollow_fraction + config_.post_fraction;
    double roll = rng.NextDouble() * total;
    if (roll < config_.feed_fraction) {
      op.kind = OpKind::kFeed;
    } else if (roll < config_.feed_fraction + config_.follow_fraction) {
      op.kind = OpKind::kFollow;
    } else if (roll <
               config_.feed_fraction + config_.follow_fraction + config_.unfollow_fraction) {
      op.kind = OpKind::kUnfollow;
    } else {
      op.kind = OpKind::kPost;
    }
  }
  if (op.kind == OpKind::kFollow || op.kind == OpKind::kUnfollow) {
    op.target = rng.Zipf(config_.users, config_.target_zipf_theta);
    if (op.target == op.actor) op.target = (op.target + 1) % config_.users;
  }
  return op;
}

void SocialWorkloadDriver::ResetFeedStats() {
  stats_.feed_latency.Reset();
  stats_.feeds_ok = 0;
  stats_.feeds_failed = 0;
  stats_.feed_items = 0;
  stats_.feed_digest = 0;
}

void SocialWorkloadDriver::Run(std::function<void()> done) {
  Executor* loop = clients_[0]->router()->loop();
  ResetFeedStats();
  Rng rng(seed_);
  std::vector<Op> feeds;
  std::vector<Op> mutations;
  // One tape, two lanes. Each op keeps its tape index: feeds use it for
  // scheduling, posts use it as their logical timestamp offset — the same
  // post gets the same bytes in every arm no matter when it executes.
  std::vector<int64_t> feed_index, mutation_index;
  for (int64_t i = 0; i < config_.ops; ++i) {
    Op op = DrawOp(rng, /*feed_only=*/false);
    if (op.kind == OpKind::kFeed) {
      feeds.push_back(op);
      feed_index.push_back(i);
    } else {
      mutations.push_back(op);
      mutation_index.push_back(i);
    }
  }

  auto pending = std::make_shared<int64_t>(static_cast<int64_t>(feeds.size()) + 1);
  auto finish = [pending, done]() {
    if (--*pending == 0) done();
  };

  for (size_t i = 0; i < feeds.size(); ++i) {
    GraphClient* client = clients_[i % clients_.size()];
    int64_t actor = feeds[i].actor;
    int64_t index = feed_index[i];
    loop->ScheduleAt(loop->Now() + index * config_.op_interval,
                     [this, client, actor, index, finish]() {
                       IssueFeed(client, index, actor, /*digest=*/false, finish);
                     });
  }

  // Mutations: one serial chain, tape order. Stash the tape and indices in
  // a shared holder the chain walks.
  struct Chain {
    std::vector<Op> ops;
    std::vector<int64_t> indices;
  };
  auto chain = std::make_shared<Chain>(Chain{std::move(mutations), std::move(mutation_index)});
  // Recursive lambda via shared holder. The step holds itself weakly (a
  // strong self-capture is a cycle that leaks); each in-flight `next` keeps
  // it alive until the chain ends.
  auto step_holder = std::make_shared<std::function<void(size_t)>>();
  std::weak_ptr<std::function<void(size_t)>> weak_step = step_holder;
  *step_holder = [this, chain, finish, weak_step](size_t i) {
    if (i >= chain->ops.size()) {
      finish();
      return;
    }
    const Op& op = chain->ops[i];
    auto next = [this, finish, step_holder = weak_step.lock(), i](Status status) {
      if (status.ok()) {
        ++stats_.mutations_ok;
      } else {
        ++stats_.mutations_failed;
      }
      (*step_holder)(i + 1);
    };
    GraphClient* client = clients_[0];
    uint64_t actor = static_cast<uint64_t>(op.actor);
    switch (op.kind) {
      case OpKind::kFollow:
        client->Follow(actor, static_cast<uint64_t>(op.target), RequestOptions{}, next);
        break;
      case OpKind::kUnfollow:
        client->Unfollow(actor, static_cast<uint64_t>(op.target), RequestOptions{}, next);
        break;
      case OpKind::kPost: {
        PostRef post{config_.post_ts_base + static_cast<uint64_t>(chain->indices[i]),
                     static_cast<uint64_t>(next_seq_[op.actor]++)};
        client->Post(actor, post, RequestOptions{}, next);
        break;
      }
      case OpKind::kFeed:
        (*weak_step.lock())(i + 1);  // unreachable; feeds went to the other lane
        break;
    }
  };
  (*step_holder)(0);
}

void SocialWorkloadDriver::RunFeedPass(int64_t feeds, int pass, std::function<void()> done) {
  Executor* loop = clients_[0]->router()->loop();
  ResetFeedStats();
  // Fresh per-pass tape: identical across arms (pure function of seed and
  // pass number), uncorrelated between passes.
  Rng rng(seed_ ^ (0x9e3779b97f4a7c15ull * static_cast<uint64_t>(pass + 1)));
  auto pending = std::make_shared<int64_t>(feeds);
  if (feeds == 0) {
    loop->ScheduleAfter(0, done);
    return;
  }
  auto finish = [pending, done]() {
    if (--*pending == 0) done();
  };
  Duration interval =
      config_.feed_pass_interval > 0 ? config_.feed_pass_interval : config_.op_interval;
  for (int64_t i = 0; i < feeds; ++i) {
    Op op = DrawOp(rng, /*feed_only=*/true);
    GraphClient* client = clients_[static_cast<size_t>(i) % clients_.size()];
    int64_t actor = op.actor;
    loop->ScheduleAt(loop->Now() + i * interval,
                     [this, client, actor, i, finish]() {
                       IssueFeed(client, i, actor, /*digest=*/true, finish);
                     });
  }
}

void SocialWorkloadDriver::IssueFeed(GraphClient* client, int64_t op_index, int64_t actor,
                                     bool digest, std::function<void()> on_done) {
  Executor* loop = client->router()->loop();
  Time start = loop->Now();
  client->Feed(
      static_cast<uint64_t>(actor), kFeedK, RequestOptions{},
      [this, loop, start, op_index, digest,
       on_done = std::move(on_done)](Result<std::vector<FeedItem>> result) {
        stats_.feed_latency.Record(loop->Now() - start);
        if (result.ok()) {
          ++stats_.feeds_ok;
          stats_.feed_items += static_cast<int64_t>(result->size());
          if (digest) {
            // Hash each feed against its op index, then sum: commutative
            // across completion order, sensitive to any item/order change
            // within a feed.
            uint64_t h = FnvMix(kFnvOffset, static_cast<uint64_t>(op_index));
            for (const FeedItem& item : *result) {
              h = FnvMix(h, item.author);
              h = FnvMix(h, item.seq);
              h = FnvMix(h, item.ts);
            }
            stats_.feed_digest += h;
          }
        } else {
          ++stats_.feeds_failed;
        }
        on_done();
      });
}

}  // namespace scads
