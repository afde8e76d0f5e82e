#include "server/session.h"

#include "common/hex.h"
#include "crypto/hmac.h"

namespace medvault::server {

SessionManager::SessionManager(const Slice& entropy, const Clock* clock,
                               uint64_t ttl_micros)
    : clock_(clock),
      ttl_micros_(ttl_micros),
      drbg_(entropy),
      index_key_(drbg_.Generate(32)) {}

std::string SessionManager::DigestOf(const std::string& token) const {
  // A plain token-keyed probe stops comparing at the first mismatching
  // byte, so its timing would say how much of a guess matches a live
  // token. Under a secret-keyed MAC, a one-byte change to the guess
  // scrambles its whole digest: the compares reveal nothing.
  return crypto::HmacSha256(Slice(index_key_), Slice(token));
}

void SessionManager::PruneLocked(Timestamp now) {
  while (!by_expiry_.empty() && by_expiry_.begin()->first <= now) {
    sessions_.erase(by_expiry_.begin()->second);
    by_expiry_.erase(by_expiry_.begin());
  }
}

std::string SessionManager::Issue(const core::PrincipalId& principal) {
  const Timestamp now = clock_->Now();
  std::lock_guard<std::mutex> lock(mu_);
  PruneLocked(now);
  std::string token = HexEncode(drbg_.Generate(16));
  std::string digest = DigestOf(token);
  auto expiry = by_expiry_.emplace(
      now + static_cast<Timestamp>(ttl_micros_), digest);
  sessions_.emplace(std::move(digest), Session{principal, expiry});
  return token;
}

Result<core::PrincipalId> SessionManager::Lookup(const std::string& token) {
  const std::string digest = DigestOf(token);
  const Timestamp now = clock_->Now();
  std::lock_guard<std::mutex> lock(mu_);
  PruneLocked(now);
  auto it = sessions_.find(digest);
  if (it == sessions_.end()) {
    // One message for unknown, expired, and revoked alike: the error
    // must not help a caller distinguish a never-issued token from one
    // that was just logged out.
    return Status::PermissionDenied("invalid or expired session");
  }
  return it->second.principal;
}

bool SessionManager::Revoke(const std::string& token) {
  const std::string digest = DigestOf(token);
  const Timestamp now = clock_->Now();
  std::lock_guard<std::mutex> lock(mu_);
  PruneLocked(now);
  auto it = sessions_.find(digest);
  if (it == sessions_.end()) return false;
  by_expiry_.erase(it->second.expiry);
  sessions_.erase(it);
  return true;
}

size_t SessionManager::ActiveSessions() {
  const Timestamp now = clock_->Now();
  std::lock_guard<std::mutex> lock(mu_);
  PruneLocked(now);
  return sessions_.size();
}

}  // namespace medvault::server
