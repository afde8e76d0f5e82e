// SessionManager in isolation: the bearer-token lifecycle, the
// exclusive expiry boundary, pruning that keeps ActiveSessions() exact
// under mass expiry, refusals that look the same whatever the reason,
// and concurrent Issue/Lookup/Revoke churn (TSan runs this via the
// `serve` label).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "server/session.h"

namespace medvault::server {
namespace {

constexpr uint64_t kTtl = 1000;
constexpr Timestamp kStart = 1'000'000;

class SessionTest : public ::testing::Test {
 protected:
  ManualClock clock_{kStart};
  SessionManager sessions_{"session-test-entropy", &clock_, kTtl};
};

TEST_F(SessionTest, IssueLookupRevokeDenied) {
  const std::string token = sessions_.Issue("dr");
  EXPECT_EQ(token.size(), 32u);
  auto who = sessions_.Lookup(token);
  ASSERT_TRUE(who.ok()) << who.status().ToString();
  EXPECT_EQ(*who, "dr");
  EXPECT_EQ(sessions_.ActiveSessions(), 1u);

  EXPECT_TRUE(sessions_.Revoke(token));
  auto denied = sessions_.Lookup(token);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), Status::Code::kPermissionDenied);
  EXPECT_FALSE(sessions_.Revoke(token));
  EXPECT_EQ(sessions_.ActiveSessions(), 0u);
}

TEST_F(SessionTest, TokensAreDistinctAndMapToTheirOwnPrincipal) {
  const std::string a = sessions_.Issue("dr");
  const std::string b = sessions_.Issue("pat");
  ASSERT_NE(a, b);
  EXPECT_EQ(*sessions_.Lookup(a), "dr");
  EXPECT_EQ(*sessions_.Lookup(b), "pat");
  // Revoking one leaves the other live.
  EXPECT_TRUE(sessions_.Revoke(a));
  EXPECT_FALSE(sessions_.Lookup(a).ok());
  EXPECT_EQ(*sessions_.Lookup(b), "pat");
}

TEST_F(SessionTest, ExpiryIsExclusive) {
  const std::string token = sessions_.Issue("dr");
  const Timestamp expires_at = kStart + static_cast<Timestamp>(kTtl);
  clock_.Set(expires_at - 1);
  EXPECT_TRUE(sessions_.Lookup(token).ok());
  EXPECT_EQ(sessions_.ActiveSessions(), 1u);
  clock_.Set(expires_at);
  EXPECT_FALSE(sessions_.Lookup(token).ok());
  EXPECT_EQ(sessions_.ActiveSessions(), 0u);
  // An expired token is no longer live, so it cannot be revoked either.
  EXPECT_FALSE(sessions_.Revoke(token));
}

TEST_F(SessionTest, ClockJumpPastTtlEmptiesTheTable) {
  constexpr int kCount = 10'000;
  std::vector<std::string> tokens;
  tokens.reserve(kCount);
  for (int i = 0; i < kCount; ++i) {
    tokens.push_back(sessions_.Issue("p-" + std::to_string(i)));
  }
  EXPECT_EQ(sessions_.ActiveSessions(), static_cast<size_t>(kCount));
  clock_.Advance(static_cast<Timestamp>(kTtl) + 1);
  EXPECT_EQ(sessions_.ActiveSessions(), 0u);
  EXPECT_FALSE(sessions_.Lookup(tokens.front()).ok());
  EXPECT_FALSE(sessions_.Lookup(tokens.back()).ok());
  // The table still works after the mass prune.
  const std::string fresh = sessions_.Issue("late");
  EXPECT_EQ(*sessions_.Lookup(fresh), "late");
  EXPECT_EQ(sessions_.ActiveSessions(), 1u);
}

TEST_F(SessionTest, StaggeredIssuesExpireOlderHalfOnly) {
  constexpr int kCount = 100;
  constexpr Timestamp kStep = 10;  // kCount * kStep spans the TTL
  std::vector<std::string> tokens;
  for (int i = 0; i < kCount; ++i) {
    tokens.push_back(sessions_.Issue("p-" + std::to_string(i)));
    clock_.Advance(kStep);
  }
  // Session i expires at kStart + i*kStep + kTtl. Set the clock to the
  // expiry of session kCount/2 - 1: it and everything older are dead.
  clock_.Set(kStart + (kCount / 2 - 1) * kStep +
             static_cast<Timestamp>(kTtl));
  EXPECT_EQ(sessions_.ActiveSessions(), static_cast<size_t>(kCount / 2));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(sessions_.Lookup(tokens[i]).ok(), i >= kCount / 2) << i;
  }
}

TEST_F(SessionTest, EveryRefusalIsByteIdentical) {
  const std::string revoked = sessions_.Issue("dr");
  ASSERT_TRUE(sessions_.Revoke(revoked));
  const std::string expired = sessions_.Issue("dr");
  clock_.Advance(static_cast<Timestamp>(kTtl));
  const std::string live = sessions_.Issue("dr");

  const std::string unknown(32, 'a');
  const std::string wrong_length = live + "0";
  const std::string prefix = live.substr(0, 31);
  std::vector<Status> refusals;
  for (const std::string& token :
       {unknown, std::string(), wrong_length, prefix, revoked, expired}) {
    auto r = sessions_.Lookup(token);
    ASSERT_FALSE(r.ok()) << "token '" << token << "' was accepted";
    refusals.push_back(r.status());
  }
  for (const Status& s : refusals) {
    EXPECT_EQ(s.code(), refusals.front().code());
    EXPECT_EQ(s.message(), refusals.front().message());
    EXPECT_EQ(s.ToString(), refusals.front().ToString());
  }
  EXPECT_EQ(refusals.front().code(), Status::Code::kPermissionDenied);
  EXPECT_TRUE(sessions_.Lookup(live).ok());
}

TEST_F(SessionTest, ConcurrentChurn) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 500;
  // One long-lived session every thread keeps checking while the
  // others come and go around it.
  const std::string anchor = sessions_.Issue("anchor");
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string me = "t-" + std::to_string(t);
      for (int i = 0; i < kRounds; ++i) {
        const std::string token = sessions_.Issue(me);
        auto who = sessions_.Lookup(token);
        if (!who.ok() || *who != me) failures.fetch_add(1);
        auto a = sessions_.Lookup(anchor);
        if (!a.ok() || *a != "anchor") failures.fetch_add(1);
        if (!sessions_.Revoke(token)) failures.fetch_add(1);
        if (sessions_.Lookup(token).ok()) failures.fetch_add(1);
        if (sessions_.Revoke(token)) failures.fetch_add(1);
        if (i % 64 == 0) sessions_.ActiveSessions();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(sessions_.ActiveSessions(), 1u);
  EXPECT_TRUE(sessions_.Lookup(anchor).ok());
}

}  // namespace
}  // namespace medvault::server
