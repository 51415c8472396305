// SpaceOptions::verify_designs takes its default from the library's own
// build, not from the includer's. This translation unit deliberately
// compiles the library headers with NDEBUG flipped relative to the rest of
// the build, the way a Debug consumer links a Release library (or the
// reverse), and must still see the library's default.
#include <gtest/gtest.h>

#ifdef NDEBUG
#undef NDEBUG
#else
#define NDEBUG 1
#endif

#include "api/api.h"
#include "dtas/design_space.h"

namespace bridge {
namespace {

TEST(VerifyDefault, IncluderFlagsDoNotChangeTheDefault) {
  const dtas::SpaceOptions here;
  EXPECT_EQ(here.verify_designs, dtas::default_verify_designs());
  // RequestOptions::space_options() default-constructs SpaceOptions
  // inside the library, so it carries the library's view of the default.
  const dtas::SpaceOptions in_library = api::RequestOptions{}.space_options();
  EXPECT_EQ(here.verify_designs, in_library.verify_designs);
}

}  // namespace
}  // namespace bridge
