// Round-robin fixed-stripe file layout, exactly as the paper assumes
// (§III-B): "the parallel file is placed on servers with a fixed-size
// stripe in a round-robin way".
//
// Stripe k of a file (bytes [k*str, (k+1)*str)) lives on server (k % M),
// at within-server file offset (k / M) * str + (byte offset within stripe).
// SplitRequest decomposes a byte-range request into the per-server
// sub-requests that PVFS2 would issue; InvolvedServerCount and
// MaxSubRequestSize are the layout quantities Eq. 6 and Table II analyse.
// All three are closed forms: their cost is at most proportional to the
// servers touched, never to the number of stripes the request spans.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace s4d::pfs {

struct StripeConfig {
  int server_count = 1;           // M in the paper
  byte_count stripe_size = 64 * KiB;  // str; PVFS2's default
};

struct SubRequest {
  int server = 0;
  byte_count file_offset = 0;    // offset of this fragment in the logical file
  byte_count server_offset = 0;  // offset within the server-local file portion
  byte_count size = 0;
};

// Splits [offset, offset+size) into per-server sub-requests. Each returned
// entry merges all fragments the request touches on one server into a single
// contiguous server-local range (stripes of one file are contiguous on a
// server under round-robin placement, so a multi-stripe hit on one server
// is one server-side request — matching PVFS2's flow-protocol behaviour).
// Entries are ordered by ascending server index, which fixes the order the
// file system issues them in (part of the determinism contract); empty for
// size <= 0.
std::vector<SubRequest> SplitRequest(const StripeConfig& cfg,
                                     byte_count offset, byte_count size);
// SplitRequest into caller-owned storage: replaces the contents of `out`,
// whose capacity is reused, so a warm vector makes the split allocation-free.
void SplitRequestInto(const StripeConfig& cfg, byte_count offset,
                      byte_count size, std::vector<SubRequest>& out);

// Eq. 6: number of distinct servers serving the request.
int InvolvedServerCount(const StripeConfig& cfg, byte_count offset,
                        byte_count size);

// The largest per-server total size for the request — the s_m of Table II,
// computed by its case analysis (beginning fragment b, ending fragment e,
// delta = E - B).
byte_count MaxSubRequestSize(const StripeConfig& cfg, byte_count offset,
                             byte_count size);

}  // namespace s4d::pfs
