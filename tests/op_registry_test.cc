#include <gtest/gtest.h>

#include <algorithm>

#include "raster/scene.h"
#include "test_util.h"
#include "types/op_registry.h"
#include "types/primitive_class.h"

namespace gaea {
namespace {

OperatorSignature Sig(std::vector<TypeId> params, TypeId result,
                      OperatorFn fn) {
  OperatorSignature sig;
  sig.params = std::move(params);
  sig.result = result;
  sig.fn = std::move(fn);
  return sig;
}

TEST(PrimitiveClassTest, BuiltinsRegistered) {
  PrimitiveClassRegistry reg = PrimitiveClassRegistry::WithBuiltins();
  EXPECT_TRUE(reg.Contains("image"));
  EXPECT_TRUE(reg.Contains("box"));
  EXPECT_TRUE(reg.Contains("abstime"));
  EXPECT_TRUE(reg.Contains("float8"));
  ASSERT_OK_AND_ASSIGN(const PrimitiveClass* img, reg.Lookup("image"));
  EXPECT_EQ(img->type, TypeId::kImage);
  EXPECT_EQ(img->external_repr, "(nrows, ncols, pixtype, filepath)");
  EXPECT_FALSE(reg.Lookup("quaternion").ok());
}

TEST(PrimitiveClassTest, UserExtension) {
  PrimitiveClassRegistry reg = PrimitiveClassRegistry::WithBuiltins();
  ASSERT_OK(reg.Register({"ndvi_value", TypeId::kDouble, "(decimal)",
                          "vegetation index in [-1,1]"}));
  EXPECT_TRUE(reg.Contains("ndvi_value"));
  // Re-registration rejected.
  EXPECT_EQ(reg.Register({"ndvi_value", TypeId::kDouble, "", ""}).code(),
            StatusCode::kAlreadyExists);
  // Browse by canonical type.
  std::vector<std::string> doubles = reg.NamesForType(TypeId::kDouble);
  EXPECT_NE(std::find(doubles.begin(), doubles.end(), "ndvi_value"),
            doubles.end());
}

TEST(OpRegistryTest, RegisterAndInvoke) {
  OperatorRegistry reg;
  ASSERT_OK(reg.Register(
      "twice", Sig({TypeId::kInt}, TypeId::kInt,
                   [](const ValueList& args) -> StatusOr<Value> {
                     return Value::Int(args[0].AsInt().value() * 2);
                   })));
  ASSERT_OK_AND_ASSIGN(Value v, reg.Invoke("twice", {Value::Int(21)}));
  EXPECT_EQ(v.AsInt().value(), 42);
}

TEST(OpRegistryTest, UnknownOperatorAndOverload) {
  OperatorRegistry reg;
  ASSERT_OK(RegisterBuiltinOperators(&reg));
  EXPECT_EQ(reg.Invoke("frobnicate", {}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(reg.Invoke("add", {Value::String("x"), Value::Int(1)})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(OpRegistryTest, DuplicateOverloadRejected) {
  OperatorRegistry reg;
  auto fn = [](const ValueList&) -> StatusOr<Value> { return Value::Int(0); };
  ASSERT_OK(reg.Register("f", Sig({TypeId::kInt}, TypeId::kInt, fn)));
  EXPECT_EQ(reg.Register("f", Sig({TypeId::kInt}, TypeId::kInt, fn)).code(),
            StatusCode::kAlreadyExists);
  // A different arity is a fine overload.
  ASSERT_OK(reg.Register("f", Sig({TypeId::kInt, TypeId::kInt}, TypeId::kInt,
                                  fn)));
}

TEST(OpRegistryTest, IntWidensToDoubleParams) {
  OperatorRegistry reg;
  ASSERT_OK(RegisterBuiltinOperators(&reg));
  ASSERT_OK_AND_ASSIGN(Value v, reg.Invoke("add", {Value::Int(1),
                                                   Value::Double(2.5)}));
  EXPECT_EQ(v.AsDouble().value(), 3.5);
}

TEST(OpRegistryTest, ResultTypeWithoutExecution) {
  OperatorRegistry reg;
  ASSERT_OK(RegisterBuiltinOperators(&reg));
  EXPECT_EQ(reg.ResultType("add", {TypeId::kDouble, TypeId::kDouble}).value(),
            TypeId::kDouble);
  EXPECT_EQ(reg.ResultType("lt", {TypeId::kInt, TypeId::kInt}).value(),
            TypeId::kBool);
  EXPECT_EQ(
      reg.ResultType("ndvi", {TypeId::kImage, TypeId::kImage}).value(),
      TypeId::kImage);
  EXPECT_FALSE(reg.ResultType("ndvi", {TypeId::kImage}).ok());
}

TEST(BuiltinOpsTest, ScalarArithmeticAndComparison) {
  OperatorRegistry reg;
  ASSERT_OK(RegisterBuiltinOperators(&reg));
  EXPECT_EQ(reg.Invoke("sub", {Value::Double(5), Value::Double(3)})
                ->AsDouble()
                .value(),
            2.0);
  EXPECT_EQ(reg.Invoke("mul", {Value::Double(4), Value::Double(3)})
                ->AsDouble()
                .value(),
            12.0);
  EXPECT_EQ(reg.Invoke("div", {Value::Double(9), Value::Double(3)})
                ->AsDouble()
                .value(),
            3.0);
  EXPECT_EQ(reg.Invoke("div", {Value::Double(1), Value::Double(0)})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(
      reg.Invoke("ge", {Value::Int(3), Value::Int(3)})->AsBool().value());
  EXPECT_FALSE(
      reg.Invoke("lt", {Value::Int(3), Value::Int(3)})->AsBool().value());
}

TEST(BuiltinOpsTest, ImageAccessors) {
  OperatorRegistry reg;
  ASSERT_OK(RegisterBuiltinOperators(&reg));
  ASSERT_OK_AND_ASSIGN(Image img, Image::FromValues(2, 3, {1, 2, 3, 4, 5, 6}));
  Value v = Value::OfImage(img);
  EXPECT_EQ(reg.Invoke("img_nrow", {v})->AsInt().value(), 2);
  EXPECT_EQ(reg.Invoke("img_ncol", {v})->AsInt().value(), 3);
  EXPECT_EQ(reg.Invoke("img_type", {v})->AsString().value(), "float8");
  EXPECT_NEAR(reg.Invoke("img_mean", {v})->AsDouble().value(), 3.5, 1e-12);
  EXPECT_TRUE(reg.Invoke("img_size_eq", {v, v})->AsBool().value());
}

TEST(BuiltinOpsTest, CompositeAndClassifyPipeline) {
  // The Figure 3 mapping: unsuperclassify(composite(bands), k).
  OperatorRegistry reg;
  ASSERT_OK(RegisterBuiltinOperators(&reg));
  SceneSpec spec;
  spec.nrow = 8;
  spec.ncol = 8;
  ASSERT_OK_AND_ASSIGN(std::vector<Image> bands, GenerateScene(spec));
  ValueList band_values;
  for (Image& b : bands) band_values.push_back(Value::OfImage(std::move(b)));
  Value band_list = Value::List(std::move(band_values));
  ASSERT_OK_AND_ASSIGN(Value stacked, reg.Invoke("composite", {band_list}));
  ASSERT_OK_AND_ASSIGN(Value labels,
                       reg.Invoke("unsuperclassify", {stacked, Value::Int(3)}));
  ASSERT_OK_AND_ASSIGN(ImagePtr img, labels.AsImage());
  EXPECT_EQ(img->nrow(), 8);
  Image::Stats s = img->ComputeStats();
  EXPECT_GE(s.min, 0.0);
  EXPECT_LT(s.max, 3.0);
}

TEST(BuiltinOpsTest, Figure4StagesComposeToPca) {
  OperatorRegistry reg;
  ASSERT_OK(RegisterBuiltinOperators(&reg));
  SceneSpec spec;
  spec.nrow = 8;
  spec.ncol = 8;
  ASSERT_OK_AND_ASSIGN(std::vector<Image> bands, GenerateScene(spec));
  ValueList band_values;
  for (Image& b : bands) band_values.push_back(Value::OfImage(std::move(b)));
  Value band_list = Value::List(std::move(band_values));
  ASSERT_OK_AND_ASSIGN(Value m, reg.Invoke("convert_image_matrix",
                                           {band_list}));
  ASSERT_OK_AND_ASSIGN(Value cov, reg.Invoke("compute_covariance", {m}));
  ASSERT_OK_AND_ASSIGN(Value eig, reg.Invoke("get_eigen_vector", {cov}));
  ASSERT_OK_AND_ASSIGN(Value proj, reg.Invoke("linear_combination", {m, eig}));
  ASSERT_OK_AND_ASSIGN(
      Value imgs,
      reg.Invoke("convert_matrix_image", {proj, Value::Int(8), Value::Int(8)}));
  ASSERT_OK_AND_ASSIGN(const ValueList* comps, imgs.AsList());
  EXPECT_EQ(comps->size(), 3u);
}

// Integer operator arguments beyond int range used to be narrowed with a
// cast, so 2^32 + n silently meant n. Each value below wraps to a valid
// argument; every one must be refused instead.
constexpr int64_t kWraps = int64_t{1} << 32;

Value SceneBandList() {
  SceneSpec spec;
  spec.nrow = 8;
  spec.ncol = 8;
  std::vector<Image> bands = GenerateScene(spec).value();
  ValueList band_values;
  for (Image& b : bands) band_values.push_back(Value::OfImage(std::move(b)));
  return Value::List(std::move(band_values));
}

void ExpectOutOfIntRange(const StatusOr<Value>& result) {
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("out of int range"),
            std::string::npos)
      << result.status().ToString();
}

TEST(BuiltinOpsTest, UnsuperclassifyRejectsKOutsideIntRange) {
  OperatorRegistry reg;
  ASSERT_OK(RegisterBuiltinOperators(&reg));
  Value bands = SceneBandList();
  ASSERT_OK(reg.Invoke("unsuperclassify", {bands, Value::Int(12)}));
  ExpectOutOfIntRange(
      reg.Invoke("unsuperclassify", {bands, Value::Int(kWraps + 12)}));
  ExpectOutOfIntRange(
      reg.Invoke("unsuperclassify", {bands, Value::Int(-kWraps + 12)}));
}

TEST(BuiltinOpsTest, ChangemapRejectsNumClassesOutsideIntRange) {
  OperatorRegistry reg;
  ASSERT_OK(RegisterBuiltinOperators(&reg));
  ASSERT_OK_AND_ASSIGN(Image labels, Image::FromValues(1, 3, {0, 1, 2}));
  Value a = Value::OfImage(labels);
  ASSERT_OK(reg.Invoke("changemap", {a, a, Value::Int(3)}));
  ExpectOutOfIntRange(reg.Invoke("changemap", {a, a, Value::Int(kWraps + 3)}));
}

TEST(BuiltinOpsTest, PcaRejectsComponentCountOutsideIntRange) {
  OperatorRegistry reg;
  ASSERT_OK(RegisterBuiltinOperators(&reg));
  Value bands = SceneBandList();
  for (const char* op : {"pca", "spca"}) {
    ASSERT_OK(reg.Invoke(op, {bands, Value::Int(2)}));
    ExpectOutOfIntRange(reg.Invoke(op, {bands, Value::Int(kWraps + 2)}));
  }
}

TEST(BuiltinOpsTest, ConvertMatrixImageRejectsShapeOutsideIntRange) {
  OperatorRegistry reg;
  ASSERT_OK(RegisterBuiltinOperators(&reg));
  ASSERT_OK_AND_ASSIGN(Value m,
                       reg.Invoke("convert_image_matrix", {SceneBandList()}));
  ASSERT_OK(
      reg.Invoke("convert_matrix_image", {m, Value::Int(8), Value::Int(8)}));
  ExpectOutOfIntRange(reg.Invoke("convert_matrix_image",
                                 {m, Value::Int(kWraps + 8), Value::Int(8)}));
  ExpectOutOfIntRange(reg.Invoke("convert_matrix_image",
                                 {m, Value::Int(8), Value::Int(kWraps + 8)}));
}

TEST(BuiltinOpsTest, SpatialTemporalOps) {
  OperatorRegistry reg;
  ASSERT_OK(RegisterBuiltinOperators(&reg));
  Value a = Value::OfBox(Box(0, 0, 10, 10));
  Value b = Value::OfBox(Box(5, 5, 15, 15));
  EXPECT_TRUE(reg.Invoke("box_overlaps", {a, b})->AsBool().value());
  EXPECT_EQ(reg.Invoke("box_union", {a, b})->AsBox().value(),
            Box(0, 0, 15, 15));
  EXPECT_EQ(reg.Invoke("box_intersect", {a, b})->AsBox().value(),
            Box(5, 5, 10, 10));
  EXPECT_EQ(reg.Invoke("box_area", {a})->AsDouble().value(), 100.0);
  EXPECT_EQ(reg.Invoke("time_diff", {Value::Time(AbsTime(100)),
                                     Value::Time(AbsTime(40))})
                ->AsInt()
                .value(),
            60);
}

TEST(OpRegistryTest, BrowsingQueries) {
  // Paper §4.2: find operators for a class, classes for an operator.
  OperatorRegistry reg;
  ASSERT_OK(RegisterBuiltinOperators(&reg));
  std::vector<std::string> image_ops = reg.OperatorsForType(TypeId::kImage);
  EXPECT_NE(std::find(image_ops.begin(), image_ops.end(), "ndvi"),
            image_ops.end());
  EXPECT_NE(std::find(image_ops.begin(), image_ops.end(), "img_nrow"),
            image_ops.end());
  // composite's parameter is a list of images; it must appear too.
  EXPECT_NE(std::find(image_ops.begin(), image_ops.end(), "composite"),
            image_ops.end());
  EXPECT_EQ(std::find(image_ops.begin(), image_ops.end(), "box_area"),
            image_ops.end());

  std::vector<TypeId> ndvi_types = reg.TypesForOperator("ndvi");
  EXPECT_EQ(ndvi_types, std::vector<TypeId>{TypeId::kImage});
  EXPECT_FALSE(reg.ListNames().empty());
}

}  // namespace
}  // namespace gaea
