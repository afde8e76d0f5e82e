#ifndef MEDVAULT_SERVER_SESSION_H_
#define MEDVAULT_SERVER_SESSION_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/clock.h"
#include "common/result.h"
#include "core/record.h"
#include "crypto/drbg.h"

namespace medvault::server {

/// Bearer-token sessions mapping HTTP clients onto RBAC principals.
///
/// A token is 32 hex chars of DRBG output — pure capability, carrying
/// no principal data, so nothing about who is logged in leaks through
/// the token itself. Sessions are in-memory only and die with the
/// process: re-authentication after a restart is the conservative
/// choice for a compliance front door (and mirrors how break-glass
/// *grants* — which DO survive restarts — differ from mere logins).
///
/// The table is a hash index keyed by HMAC-SHA256(index key, token),
/// the 32-byte index key drawn from the DRBG at construction. A probe's
/// early-exit compares see only the digest of the presented token, which
/// no caller can steer toward a live one without the key, so timing
/// leaks nothing about partial token matches. The table holds digests
/// only, never a usable bearer token.
///
/// Thread safety: all operations serialize on one internal mutex that
/// covers only the prune and the hash probe (digests are computed
/// before taking it). The table holds only live sessions; an
/// expiry-ordered index makes each prune cost O(expired), not O(live).
class SessionManager {
 public:
  /// `entropy` seeds the token DRBG; `ttl_micros` is each session's
  /// lifetime from issue.
  SessionManager(const Slice& entropy, const Clock* clock,
                 uint64_t ttl_micros);

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Issues a fresh token for `principal` (caller has already
  /// authenticated them).
  std::string Issue(const core::PrincipalId& principal);

  /// Principal behind `token`; kPermissionDenied for unknown, expired,
  /// and revoked tokens (deliberately indistinguishable). The probe is
  /// by keyed digest, so response timing leaks nothing about partial
  /// token matches.
  Result<core::PrincipalId> Lookup(const std::string& token);

  /// Ends a session; false if the token was not live.
  bool Revoke(const std::string& token);

  size_t ActiveSessions();

 private:
  /// Expiry time -> table key; the front holds the next session to lapse.
  using ExpiryIndex = std::multimap<Timestamp, std::string>;

  struct Session {
    core::PrincipalId principal;
    ExpiryIndex::iterator expiry;
  };

  /// Table key for `token`: HMAC-SHA256 under `index_key_`.
  std::string DigestOf(const std::string& token) const;
  /// Drops every session with `expires_at <= now` (expiry is exclusive).
  void PruneLocked(Timestamp now);

  const Clock* clock_;
  uint64_t ttl_micros_;
  std::mutex mu_;
  crypto::HmacDrbg drbg_;                              // guarded by mu_
  const std::string index_key_;                        // from drbg_, immutable
  std::unordered_map<std::string, Session> sessions_;  // guarded by mu_
  ExpiryIndex by_expiry_;                              // guarded by mu_
};

}  // namespace medvault::server

#endif  // MEDVAULT_SERVER_SESSION_H_
