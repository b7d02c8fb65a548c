// gaea_provq: batch provenance queries over a Gaea database
// (docs/PROVENANCE.md).
//
//   gaea_provq --db <dir> [--text] [queries_file]
//   gaea_provq --connect <host:port> [--text] [queries_file]
//
// Reads one query per line from `queries_file` (or stdin; '#' starts a
// comment) and prints one result per line — JSON by default, the shell's
// text rendering with --text. Query forms:
//
//   ancestors <oid> [max_depth]
//   descendants <oid> [max_depth]
//   why <oid>
//   where <oid>
//   diff <oid> <oid>
//
// A query that fails prints {"error":"..."} (or "error: ..." with --text)
// and the run continues; the exit status is 1 if any query failed. The
// --connect form speaks the Provenance RPC, which replicas serve too.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "gaea/kernel.h"
#include "net/client.h"
#include "net/server.h"
#include "util/string_util.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --db <dir> [--text] [queries_file]\n"
               "       %s --connect <host:port> [--text] [queries_file]\n",
               argv0, argv0);
  return 2;
}

std::string JsonError(const gaea::Status& status) {
  std::string msg = status.ToString();
  std::string escaped;
  for (char c : msg) {
    if (c == '"' || c == '\\') escaped += '\\';
    if (c == '\n') {
      escaped += "\\n";
      continue;
    }
    escaped += c;
  }
  return "{\"error\":\"" + escaped + "\"}";
}

bool ParseLine(const std::string& line, gaea::net::ProvenanceRequest* request,
               std::string* error) {
  std::istringstream words(line);
  std::string verb;
  words >> verb;
  verb = gaea::StrToLower(verb);
  uint64_t depth = 0;
  if (verb == "ancestors" || verb == "descendants") {
    request->kind = verb == "ancestors"
                        ? gaea::net::ProvenanceKind::kAncestors
                        : gaea::net::ProvenanceKind::kDescendants;
    if (!(words >> request->oid)) {
      *error = "missing oid";
      return false;
    }
    if (words >> depth) request->max_depth = static_cast<uint32_t>(depth);
  } else if (verb == "why" || verb == "where") {
    request->kind = verb == "why" ? gaea::net::ProvenanceKind::kWhy
                                  : gaea::net::ProvenanceKind::kWhere;
    if (!(words >> request->oid)) {
      *error = "missing oid";
      return false;
    }
  } else if (verb == "diff") {
    request->kind = gaea::net::ProvenanceKind::kDiff;
    if (!(words >> request->oid >> request->oid_b)) {
      *error = "diff needs two oids";
      return false;
    }
  } else {
    *error = "unknown query: " + verb +
             " (queries: ancestors, descendants, why, where, diff)";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_dir, connect, queries_file;
  bool text_output = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--db") == 0 && i + 1 < argc) {
      db_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect = argv[++i];
    } else if (std::strcmp(argv[i], "--text") == 0) {
      text_output = true;
    } else if (argv[i][0] != '-' && queries_file.empty()) {
      queries_file = argv[i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (db_dir.empty() == connect.empty()) return Usage(argv[0]);

  std::unique_ptr<gaea::GaeaKernel> kernel;
  std::unique_ptr<gaea::net::GaeaClient> client;
  if (!db_dir.empty()) {
    gaea::GaeaKernel::Options options;
    options.dir = db_dir;
    auto opened = gaea::GaeaKernel::Open(options);
    if (!opened.ok()) {
      std::fprintf(stderr, "gaea_provq: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    kernel = *std::move(opened);
  } else {
    std::string host;
    int port = 0;
    if (!gaea::net::ParseHostPort(connect, &host, &port)) return Usage(argv[0]);
    auto connected = gaea::net::GaeaClient::Connect(host, port);
    if (!connected.ok()) {
      std::fprintf(stderr, "gaea_provq: %s\n",
                   connected.status().ToString().c_str());
      return 1;
    }
    client = *std::move(connected);
  }

  std::ifstream file;
  if (!queries_file.empty()) {
    file.open(queries_file);
    if (!file) {
      std::fprintf(stderr, "gaea_provq: cannot open %s\n",
                   queries_file.c_str());
      return 1;
    }
  }
  std::istream& in = queries_file.empty() ? std::cin : file;

  int failures = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::string trimmed(gaea::StrTrim(line));
    if (trimmed.empty() || trimmed[0] == '#') continue;
    gaea::net::ProvenanceRequest request;
    std::string parse_error;
    if (!ParseLine(trimmed, &request, &parse_error)) {
      std::printf("%s\n",
                  text_output
                      ? ("error: " + parse_error).c_str()
                      : JsonError(gaea::Status::InvalidArgument(parse_error))
                            .c_str());
      ++failures;
      continue;
    }
    auto reply = kernel != nullptr
                     ? gaea::net::AnswerProvenance(kernel.get(), request)
                     : client->Provenance(request);
    if (!reply.ok()) {
      std::printf("%s\n", text_output
                              ? ("error: " + reply.status().ToString()).c_str()
                              : JsonError(reply.status()).c_str());
      ++failures;
      continue;
    }
    if (text_output) {
      std::printf("%s", reply->text.c_str());
    } else {
      std::printf("%s\n", reply->json.c_str());
    }
  }
  return failures > 0 ? 1 : 0;
}
