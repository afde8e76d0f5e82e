// medvault_cli — a small administration shell over a PosixEnv vault.
//
//   medvault_cli <vault-dir> <command> [args...]
//
// A fresh directory becomes a one-shard ShardedVault (record ids read
// "s0-r-<n>"); an existing one opens with the count in its shards.meta.
// The master key and entropy seed come from MEDVAULT_MASTER_KEY /
// MEDVAULT_ENTROPY (any strings; the key is padded/truncated to 32
// bytes). Demo-grade key handling — production puts these in a KMS.
//
// Commands:
//   init <admin-id>
//   register <actor> <id> <role> <display-name>
//   assign-care <actor> <clinician> <patient>
//   create <actor> <patient> <policy> <text> [keyword...]
//   read <actor> <record> [version]
//   history <actor> <record>
//   correct <actor> <record> <reason> <text> [keyword...]
//   search <actor> <term>
//   dispose <actor> <record>
//   break-glass <clinician> <patient> <minutes> <justification>
//   audit <actor> [record]
//   custody <actor> <record>
//   disclosures <actor> <patient>
//   checkpoint
//   verify

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/hex.h"
#include "core/audit.h"
#include "core/sharded_vault.h"
#include "storage/posix_env.h"

namespace {

using medvault::HexEncode;
using medvault::Slice;
using medvault::Status;
using medvault::core::AuditActionName;
using medvault::core::AuditEvent;
using medvault::core::CustodyEventTypeName;
using medvault::core::Role;
using medvault::core::ShardedVault;
using medvault::core::ShardedVaultOptions;
using medvault::core::ShardRouter;

int Usage() {
  fprintf(stderr,
          "usage: medvault_cli <vault-dir> <command> [args...]\n"
          "commands: init register assign-care create read history "
          "correct\n          search dispose break-glass audit custody "
          "disclosures checkpoint verify\n");
  return 2;
}

int Fail(const Status& status) {
  fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

std::string EnvOr(const char* name, const std::string& fallback) {
  const char* value = getenv(name);
  return value != nullptr ? value : fallback;
}

medvault::Result<Role> ParseRole(const std::string& name) {
  if (name == "physician") return Role::kPhysician;
  if (name == "nurse") return Role::kNurse;
  if (name == "clerk") return Role::kClerk;
  if (name == "auditor") return Role::kAuditor;
  if (name == "patient") return Role::kPatient;
  if (name == "admin") return Role::kAdmin;
  return Status::InvalidArgument(
      "role must be physician|nurse|clerk|auditor|patient|admin");
}

void PrintEvents(const std::vector<AuditEvent>& events) {
  for (const AuditEvent& e : events) {
    printf("#%-6llu %-14s actor=%-12s record=%-8s %s\n",
           static_cast<unsigned long long>(e.seq), AuditActionName(e.action),
           e.actor.c_str(), e.record_id.empty() ? "-" : e.record_id.c_str(),
           e.details.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string dir = argv[1];
  const std::string command = argv[2];
  std::vector<std::string> args(argv + 3, argv + argc);

  static medvault::SystemClock clock;
  std::string master = EnvOr("MEDVAULT_MASTER_KEY", "demo-master-key");
  master.resize(32, '#');
  ShardedVaultOptions options;
  options.env = medvault::storage::PosixEnv::Default();
  options.dir = dir;
  options.clock = &clock;
  options.master_key = master;
  options.entropy = EnvOr("MEDVAULT_ENTROPY", "demo-entropy:" + dir);
  options.num_shards = ShardRouter::ReadManifest(options.env, dir).ValueOr(1);
  options.signer_height = 8;

  auto vault_or = ShardedVault::Open(options);
  if (!vault_or.ok()) return Fail(vault_or.status());
  auto vault = std::move(vault_or).value();

  if (command == "init") {
    if (args.size() != 1) return Usage();
    Status s = vault->RegisterPrincipal(
        "bootstrap", {args[0], Role::kAdmin, "Administrator"});
    if (!s.ok()) return Fail(s);
    printf("vault at %s initialized; admin '%s' registered\n", dir.c_str(),
           args[0].c_str());
  } else if (command == "register") {
    if (args.size() != 4) return Usage();
    auto role = ParseRole(args[2]);
    if (!role.ok()) return Fail(role.status());
    Status s = vault->RegisterPrincipal(args[0], {args[1], *role, args[3]});
    if (!s.ok()) return Fail(s);
    printf("registered %s (%s)\n", args[1].c_str(), args[2].c_str());
  } else if (command == "assign-care") {
    if (args.size() != 3) return Usage();
    Status s = vault->AssignCare(args[0], args[1], args[2]);
    if (!s.ok()) return Fail(s);
    printf("%s now treats %s\n", args[1].c_str(), args[2].c_str());
  } else if (command == "create") {
    if (args.size() < 4) return Usage();
    std::vector<std::string> keywords(args.begin() + 4, args.end());
    auto id = vault->CreateRecord(args[0], args[1], "text/plain", args[3],
                                  keywords, args[2]);
    if (!id.ok()) return Fail(id.status());
    printf("%s\n", id->c_str());
  } else if (command == "read") {
    if (args.size() != 2 && args.size() != 3) return Usage();
    auto record =
        args.size() == 3
            ? vault->ReadRecordVersion(args[0], args[1],
                                       strtoul(args[2].c_str(), nullptr, 10))
            : vault->ReadRecord(args[0], args[1]);
    if (!record.ok()) return Fail(record.status());
    printf("record %s v%u by %s:\n%s\n", args[1].c_str(),
           record->header.version, record->header.author.c_str(),
           record->plaintext.c_str());
  } else if (command == "history") {
    if (args.size() != 2) return Usage();
    auto history = vault->RecordHistory(args[0], args[1]);
    if (!history.ok()) return Fail(history.status());
    for (const auto& h : *history) {
      printf("v%-3u by %-12s %s\n", h.version, h.author.c_str(),
             h.reason.empty() ? "(original)" : h.reason.c_str());
    }
  } else if (command == "correct") {
    if (args.size() < 4) return Usage();
    std::vector<std::string> keywords(args.begin() + 4, args.end());
    auto header =
        vault->CorrectRecord(args[0], args[1], args[3], args[2], keywords);
    if (!header.ok()) return Fail(header.status());
    printf("corrected to v%u\n", header->version);
  } else if (command == "search") {
    if (args.size() != 2) return Usage();
    auto hits = vault->SearchKeyword(args[0], args[1]);
    if (!hits.ok()) return Fail(hits.status());
    for (const auto& id : *hits) printf("%s\n", id.c_str());
  } else if (command == "dispose") {
    if (args.size() != 2) return Usage();
    auto cert = vault->DisposeRecord(args[0], args[1]);
    if (!cert.ok()) return Fail(cert.status());
    printf("disposed %s; certificate %s\n", args[1].c_str(),
           HexEncode(Slice(cert->Encode().data(), 8)).c_str());
  } else if (command == "break-glass") {
    if (args.size() != 4) return Usage();
    auto grant = vault->BreakGlass(
        args[0], args[1],
        args[3], strtoll(args[2].c_str(), nullptr, 10) * 60 *
                     medvault::kMicrosPerSecond);
    if (!grant.ok()) return Fail(grant.status());
    printf("grant %s active for %s minutes\n", grant->c_str(),
           args[2].c_str());
  } else if (command == "audit") {
    if (args.size() != 1 && args.size() != 2) return Usage();
    auto trail = vault->ReadAuditTrail(args[0],
                                       args.size() == 2 ? args[1] : "");
    if (!trail.ok()) return Fail(trail.status());
    PrintEvents(*trail);
  } else if (command == "custody") {
    if (args.size() != 2) return Usage();
    auto chain = vault->GetCustodyChain(args[0], args[1]);
    if (!chain.ok()) return Fail(chain.status());
    for (const auto& e : *chain) {
      printf("%-18s by %-14s at %-20s %s\n", CustodyEventTypeName(e.type),
             e.actor.c_str(), e.system_id.c_str(), e.details.c_str());
    }
  } else if (command == "disclosures") {
    if (args.size() != 2) return Usage();
    auto events = vault->AccountingOfDisclosures(args[0], args[1]);
    if (!events.ok()) return Fail(events.status());
    PrintEvents(*events);
  } else if (command == "checkpoint") {
    auto checkpoints = vault->CheckpointAudit();
    if (!checkpoints.ok()) return Fail(checkpoints.status());
    for (const auto& cp : *checkpoints) {
      printf("checkpoint: size=%llu root=%s (retain this off-site)\n",
             static_cast<unsigned long long>(cp.tree_size),
             HexEncode(cp.root).c_str());
    }
  } else if (command == "verify") {
    Status s = vault->VerifyEverything();
    printf("%s\n", s.ToString().c_str());
    return s.ok() ? 0 : 1;
  } else {
    return Usage();
  }
  return 0;
}
